"""profiled_cost_fn and the tools/profile.py CLI."""

import json

import pytest

from repro.apps import run_named_workload
from repro.core.builder import build_image, library_defs
from repro.core.config import BuildConfig
from repro.core.explorer import (
    Explorer,
    crossing_cost_fn,
    profiled_cost_fn,
)
from repro.obs import WorkloadProfile, capture_profile
from repro.tools.profile import main as profile_main

LIBS = ["libc", "netstack", "redis"]


@pytest.fixture(scope="module")
def redis_profile():
    image = build_image(BuildConfig(libraries=LIBS, backend="mpk-shared"))
    with capture_profile(image, "redis") as cap:
        run_named_workload(image, "redis")
    return cap.profile


@pytest.fixture(scope="module")
def explorer():
    return Explorer(library_defs(BuildConfig(libraries=LIBS)))


class TestProfiledCostFn:
    def test_charges_measured_crossings(self, redis_profile, explorer):
        from repro.gates.registry import relative_crossing_cost

        from repro.core.hardening import Deployment

        cost = profiled_cost_fn(redis_profile)
        # An all-shared deployment (no boundaries, no hardening) costs 0.
        any_deployment = explorer.deployments[0]
        names = list(any_deployment.coloring)
        flat = Deployment(
            choices={name: () for name in names},
            specs=dict(any_deployment.specs),
            coloring={name: 0 for name in names},
        )
        assert cost(flat) == 0.0
        # A split is charged measured crossings x the backend's ns cost.
        split = next(d for d in explorer.deployments if d.num_compartments > 1)
        coloring = split.coloring
        expected = sum(
            count
            for caller, callee, count in redis_profile.edge_items()
            if caller in coloring
            and callee in coloring
            and coloring[caller] != coloring[callee]
        ) * relative_crossing_cost("mpk-shared")
        assert cost(split) == pytest.approx(expected)

    def test_hot_library_hardening_costs_more(self, redis_profile, explorer):
        cost = profiled_cost_fn(redis_profile)
        shares = redis_profile.lib_cpu_time_ns()
        hot, cold = "netstack", "redis"
        assert shares[hot] > shares[cold]
        by_hardened = {}
        for d in explorer.deployments:
            hardened = tuple(
                name for name, techs in d.choices.items() if techs
            )
            if d.num_compartments == 1 and hardened in ((hot,), (cold,)):
                by_hardened[hardened[0]] = cost(d)
        if len(by_hardened) == 2:
            assert by_hardened[hot] > by_hardened[cold]

    def test_backend_scales_crossing_charge(self, redis_profile, explorer):
        split = next(d for d in explorer.deployments if d.num_compartments > 1)
        mpk = profiled_cost_fn(redis_profile, backend="mpk-shared")
        vm = profiled_cost_fn(redis_profile, backend="vm-rpc")
        assert vm(split) > mpk(split)

    def test_estimator_identity(self, redis_profile):
        cost = profiled_cost_fn(redis_profile)
        assert cost.profile_hash == redis_profile.profile_hash()
        assert cost.estimator == (
            f"profiled:{redis_profile.profile_hash()}:mpk-shared"
        )
        other = profiled_cost_fn(redis_profile, backend="vm-rpc")
        assert other.estimator.endswith(":vm-rpc")

    def test_edges_naming_absent_libraries_are_ignored(self, redis_profile):
        defs = library_defs(BuildConfig(libraries=["libc", "netstack"]))
        cost = profiled_cost_fn(redis_profile)
        for deployment in Explorer(defs).deployments:
            # redis-> edges can't cross boundaries that don't exist.
            assert cost(deployment) >= 0.0


class TestProfileCli:
    def _capture(self, tmp_path, workload="redis"):
        out = tmp_path / "profile.json"
        rc = profile_main(
            [
                "capture",
                "--workload",
                workload,
                "--libs",
                ",".join(LIBS),
                "--backend",
                "mpk-shared",
                "-o",
                str(out),
            ]
        )
        assert rc == 0
        return out

    def test_capture_writes_loadable_profile(self, tmp_path, capsys):
        out = self._capture(tmp_path)
        profile = WorkloadProfile.load(out)
        assert profile.workload == "redis"
        assert profile.total_crossings > 0
        assert profile.profile_hash() in capsys.readouterr().out

    def test_capture_rejects_unknown_params(self, tmp_path):
        with pytest.raises(ValueError):
            profile_main(
                [
                    "capture",
                    "--workload",
                    "redis",
                    "--param",
                    "bogus=1",
                    "-o",
                    str(tmp_path / "p.json"),
                ]
            )

    def test_recommend_checked(self, tmp_path, capsys):
        out = self._capture(tmp_path)
        config_out = tmp_path / "recommended.json"
        rc = profile_main(
            [
                "recommend",
                "--profile",
                str(out),
                "--require",
                "no-wild-writes",
                "--check",
                "-o",
                str(config_out),
            ]
        )
        assert rc == 0
        capsys.readouterr()
        payload = json.loads(config_out.read_text())
        assert payload["checked"] is True
        assert payload["estimator"].startswith("profiled:")
        # The emitted config is directly buildable.
        config = BuildConfig.from_dict(payload["recommendation"]["config"])
        image = build_image(config)
        summary, _ = run_named_workload(image, "redis")
        assert "redis" in summary

    def test_recommend_unsatisfiable(self, tmp_path, capsys, monkeypatch):
        # Every requirement set over the registered libraries is met by
        # some deployment, so the explorer is made to find none.
        out = self._capture(tmp_path)
        monkeypatch.setattr(
            Explorer, "best_performance_meeting", lambda *args, **kw: None
        )
        rc = profile_main(
            [
                "recommend",
                "--profile",
                str(out),
                "--require",
                "isolated:redis",
            ]
        )
        assert rc == 1
        assert "no deployment" in capsys.readouterr().err

    def test_isolated_requirements_are_met(self, tmp_path, capsys):
        """``isolated:<lib>`` doubles as an enumeration hint, as
        ``--isolate`` does, in both commands."""
        out = self._capture(tmp_path)
        rec_out, diff_out = tmp_path / "rec.json", tmp_path / "diff.json"
        for command, path in (("recommend", rec_out), ("diff", diff_out)):
            rc = profile_main(
                [
                    command,
                    "--profile",
                    str(out),
                    "--require",
                    "isolated:netstack",
                    "-o",
                    str(path),
                ]
            )
            assert rc == 0
        capsys.readouterr()
        diff = json.loads(diff_out.read_text())
        picks = [
            json.loads(rec_out.read_text())["recommendation"],
            diff["static"],
            diff["profiled"],
        ]
        for pick in picks:
            assert ["netstack"] in pick["config"]["compartments"]

    def test_diff_reports_measured_delta(self, tmp_path, capsys):
        out = self._capture(tmp_path)
        diff_out = tmp_path / "diff.json"
        rc = profile_main(
            [
                "diff",
                "--profile",
                str(out),
                "--require",
                "write-protected:redis",
                "--alternatives",
                "--check",
                "-o",
                str(diff_out),
            ]
        )
        assert rc == 0
        capsys.readouterr()
        payload = json.loads(diff_out.read_text())
        assert (
            payload["profiled"]["measured"]["elapsed_ns"]
            <= payload["static"]["measured"]["elapsed_ns"]
        )
        assert payload["measured_delta_ns"] >= 0

    def test_diff_finds_iperf_win(self, tmp_path, capsys):
        """The bench headline, through the CLI: on iperf the profiled
        pick diverges from the static pick and measures faster."""
        out = tmp_path / "iperf.json"
        rc = profile_main(
            [
                "capture",
                "--workload",
                "iperf",
                "--libs",
                "libc,netstack,iperf",
                "-o",
                str(out),
            ]
        )
        assert rc == 0
        capsys.readouterr()
        rc = profile_main(
            [
                "diff",
                "--profile",
                str(out),
                "--require",
                "write-protected:iperf",
                "--alternatives",
                "--check",
            ]
        )
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["same_pick"] is False
        assert payload["measured_delta_ns"] > 0
        assert payload["measured_speedup"] > 1.0

    def test_wrong_schema_is_a_clean_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"schema": 99, "workload": "redis"}))
        rc = profile_main(["recommend", "--profile", str(bad)])
        assert rc == 2
        assert "profile error" in capsys.readouterr().err
