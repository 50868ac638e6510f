"""repro.resilience: seeded fault injection + containment campaigns.

The dependability half of the FlexOS story: the paper's isolation
backends differ not just in crossing cost but in *what happens when a
compartment misbehaves*.  This package makes that measurable:

- :mod:`repro.resilience.plan` — the :class:`InjectionPlan` DSL naming
  fault sites (gate crossings, heap exhaustion, wild writes, thread
  death, lost VM notifications) with seeded schedules;
- :mod:`repro.resilience.injector` — the :class:`FaultInjector` the
  machine consults at each hook site;
- :mod:`repro.resilience.campaign` — the one campaign engine: seeded
  containment campaigns (the site × backend containment matrix),
  recovery campaigns that crash a durable redis deployment (power
  failures at the storage sites) and verify that reboot + recovery
  restores every acknowledged write with no torn record surfacing,
  and cluster failover campaigns (:mod:`repro.cluster.campaign`).
"""

from repro.resilience.injector import FaultInjector, InjectionEvent, arm
from repro.resilience.plan import SITES, FaultSpec, InjectionPlan

#: Names re-exported lazily from repro.resilience.campaign — deferred
#: so `python -m repro.resilience.campaign` does not import the module
#: twice (runpy would warn).
_CAMPAIGN_EXPORTS = (
    "KINDS",
    "CampaignKind",
    "CampaignResult",
    "default_plan",
    "default_recovery_plan",
    "run_campaign",
    "run_cell",
    "run_recovery_cell",
)


def __getattr__(name: str):
    if name in _CAMPAIGN_EXPORTS:
        from repro.resilience import campaign

        return getattr(campaign, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "KINDS",
    "SITES",
    "CampaignKind",
    "CampaignResult",
    "FaultInjector",
    "FaultSpec",
    "InjectionEvent",
    "InjectionPlan",
    "arm",
    "default_plan",
    "default_recovery_plan",
    "run_campaign",
    "run_cell",
    "run_recovery_cell",
]
