"""Model-based fuzzing of the Redis server (hypothesis).

Random command sequences run against the simulated server and a plain
Python dictionary model side by side; every response and the final
store contents must agree.  This exercises the full path — packets,
stream reassembly, gates, simulated memory — under arbitrary workloads.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import BuildConfig, build_image
from repro.apps import ClosedLoopSource, resp, start_redis
from repro.apps.workload import _switch_budget

keys = st.sampled_from([b"k0", b"k1", b"k2", b"key-long-name"])
# RESP bulks are length-framed, so values may hold any byte, CR and LF too.
values = st.binary(min_size=0, max_size=120)

commands = st.one_of(
    st.tuples(st.just("SET"), keys, values),
    st.tuples(st.just("GET"), keys),
    st.tuples(st.just("DEL"), keys),
    st.tuples(st.just("EXISTS"), keys),
    st.tuples(st.just("APPEND"), keys, values),
)


def encode(command) -> bytes:
    return resp.encode_command(command[0].encode(), *command[1:])


def model_response(store: dict, command) -> bytes:
    kind = command[0]
    if kind == "SET":
        store[command[1]] = command[2]
        return resp.encode_simple(b"OK")
    if kind == "GET":
        return resp.encode_bulk(store.get(command[1]))
    if kind == "DEL":
        existed = command[1] in store
        store.pop(command[1], None)
        return resp.encode_integer(1 if existed else 0)
    if kind == "EXISTS":
        return resp.encode_integer(1 if command[1] in store else 0)
    if kind == "APPEND":
        store[command[1]] = store.get(command[1], b"") + command[2]
        return resp.encode_integer(len(store[command[1]]))
    raise AssertionError(kind)


@settings(max_examples=25, deadline=None)
@given(script=st.lists(commands, min_size=1, max_size=25))
def test_server_matches_dict_model(script):
    image = build_image(
        BuildConfig(
            libraries=["libc", "netstack", "redis"],
            compartments=[["netstack"], ["sched", "alloc", "libc", "redis"]],
            backend="mpk-shared",
        )
    )
    app = start_redis(image)
    payloads = [encode(command) for command in script]
    source = ClosedLoopSource(app.PORT, payloads, window=1)
    responses = []
    netstack = image.lib("netstack")
    netstack.nic.rx_source = source.source
    netstack.nic.tx_sink = lambda frame: (
        source.sink(frame),
        responses.append(source.last_response),
    )
    image.run(
        until=lambda: source.done, max_switches=_switch_budget(len(script))
    )
    assert source.done

    model: dict = {}
    expected = [model_response(model, command) for command in script]
    assert responses == expected
    # The final store contents agree byte-for-byte.
    assert image.call("redis", "dbsize") == len(model)
    for key, value in model.items():
        assert image.lib("redis").value_of(key) == value
