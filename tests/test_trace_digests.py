"""Pinned trace bytes: the generator's RNG draw order is the trace.

Every figure, golden and store key downstream of ``make_app_trace`` depends
on the exact records the generator emits, and those follow from the order
of its ``random.Random`` draws.  These digests were recorded from the
record-at-a-time generator; any rewrite of the layout or emission stage
must reproduce them byte for byte.  A deliberate change to the draw order
is a trace-version change and re-blesses them openly.
"""

from __future__ import annotations

import hashlib
import struct

import pytest

from repro.workloads.datacenter import app_names, make_app_workload
from repro.workloads.generator import (LayoutParams, MixParams,
                                       SyntheticWorkload, WorkloadSpec)

LENGTH = 20_000


def trace_digest(trace) -> str:
    """sha256 over the five columns' dtypes and raw bytes."""
    h = hashlib.sha256()
    for col in (trace.pcs, trace.targets, trace.kinds, trace.taken,
                trace.ilens):
        h.update(col.dtype.str.encode())
        h.update(col.tobytes())
    return h.hexdigest()


def layout_digest(workload) -> str:
    """sha256 over every static branch, in ``static_branches`` order."""
    h = hashlib.sha256()
    for br in workload.static_branches:
        h.update(struct.pack("<qqBdi", br.pc, br.target, int(br.kind),
                             br.bias, br.ilen))
        h.update(struct.pack(f"<{len(br.targets)}q", *br.targets))
    return h.hexdigest()


#: (app, input_id, seed) -> digest of a LENGTH-record trace.
APP_DIGESTS = {
    ('cassandra', 0, 0):
        "81fbcaed10eb5a61495dc14b9f469b012f807f1f794043f99d82937679ffce04",
    ('cassandra', 0, 1):
        "c66bbb2358413982f8aeb2b94daedc2f688f768731c1b6da6f8318ebd67c1e07",
    ('cassandra', 5, 0):
        "d1843edd79b85f96d5d63ac9fb82c0948f800db5a1f641cfd3b31bdc8f1812f4",
    ('cassandra', 5, 1):
        "223819e6e56dc3527b535264dce9f796a26dc658234c496c08b55a77407a1ac4",
    ('clang', 0, 0):
        "e559dfdfba683e945e33ac2872c9a49ffa38f086d37b1c68cd57d7e78bbbcd16",
    ('clang', 0, 1):
        "fca4e94a12bf349b61c618239286b5756f2cdcff58807126f1d548506b29efc1",
    ('clang', 5, 0):
        "691eac88abf2ef4f670943ad8de7685475f72e11ac1db0b932eb2db77aea3c26",
    ('clang', 5, 1):
        "91c54493011758edcb3e7df97489de1f6fa3e1adcba8cef322c83e8f5a2048b7",
    ('drupal', 0, 0):
        "c11f2f40d4028e9c9164b2f3051d443015e5b921a070116db167c4655ec92212",
    ('drupal', 0, 1):
        "335107623500a8141f8a7e287d37a5e825889ad8ba773e0f5f971454087c593d",
    ('drupal', 5, 0):
        "f16bc3a68062c20b510131eb0b6e63eafd6eed95b3785d767de3ba14e329ec6e",
    ('drupal', 5, 1):
        "54e6f657fc4ca1feb80546dfb955d6a82da4cc2d1aaf5c66d42fa741898fe82e",
    ('finagle-chirper', 0, 0):
        "bc86e3ad6ae1d29b314c0783721ee66e48d566aea91ab8b965d6f02984e40298",
    ('finagle-chirper', 0, 1):
        "cf9f8ae6ea64c132dd6fd723dd454f78c7418e98ff4e641b54fde7a280d98748",
    ('finagle-chirper', 5, 0):
        "8bad1fbdc576075905e74552fc296993887aa76a7169f1af492ec75807cfcf5e",
    ('finagle-chirper', 5, 1):
        "23c763e7328cdef765b9f06b19a9308e750d9af58c1bd4c3367866decd5c81ab",
    ('finagle-http', 0, 0):
        "4dec2d2d9e97106620e1f9370697260a9c01c54c87cd8b5217baf35191320984",
    ('finagle-http', 0, 1):
        "1a8c877054d0fb1c01ecb252c637914bd4f86324ddc68a820861cc2b83d50ec2",
    ('finagle-http', 5, 0):
        "066f3a41063574b912c521615783c6f3d74c8326f5561267fa939544390d32a7",
    ('finagle-http', 5, 1):
        "31795069b2eac8b29c6c50b2b19a933cd7748655bfd8709e63ded863171cc1ff",
    ('kafka', 0, 0):
        "d99ee88ea2b6589ae86cf208b2075f7cbe4198c9764369b64e2640f373dc8d03",
    ('kafka', 0, 1):
        "53528d3dac43b0ee101448de315da594721d441b5fe1c31018f677fbfdf79abe",
    ('kafka', 5, 0):
        "7884fbee84f23dcba111e4203e36863ef63953cfbde4afadbcdd2d5753d00c1e",
    ('kafka', 5, 1):
        "36d893fb6a733908be7f8d3cb52787fc0cbd4e260fa2a423d34b5dba4f48b2de",
    ('mediawiki', 0, 0):
        "05e6e52bbce3c45d2ee4c7308e73167b5cdcaaed551a08e6dbbd2896246a38e5",
    ('mediawiki', 0, 1):
        "f3d2fe2a5e295372fd1ef88ff0ff320f66ba91c4a0544034e78402996be64baf",
    ('mediawiki', 5, 0):
        "cb7464c13a8b8575bd66c09c70ab907c7ca271c0c7b1a819aa204cfaa78a786d",
    ('mediawiki', 5, 1):
        "2bf947c815c2ff84b9edf759a78e548e6ed41c9a1ec3e542dbe2a6be8251efd5",
    ('mysql', 0, 0):
        "e08db609a373ecb0240a19b4b553ec439c419beb2ee636eb25c9b1858b0803c8",
    ('mysql', 0, 1):
        "82fa1b655a80605ba637468ff48c9bdb222da1b1edb1a41972c8dc696d2e3bee",
    ('mysql', 5, 0):
        "fe32f41b9619c3ffee670b06be838033fcd7ab1c717d5ac06adf461a5d79467f",
    ('mysql', 5, 1):
        "4891299627bbaa230b1732aa506c748eb6d06fee6ddf1f02f068388689e343ff",
    ('postgresql', 0, 0):
        "322a8ca4fe5ba8156bdf1b5534d5729120046939aa39ce5cfe036b1308365638",
    ('postgresql', 0, 1):
        "89d96eea327b83413da004ece559dd7d2e29dd23a32d5c39b894afec9b1e92de",
    ('postgresql', 5, 0):
        "e858e02ba3417607942d182fbfa0ad3c24909aae91f3d1fdd6a0614cddb80f67",
    ('postgresql', 5, 1):
        "b747417cc6ee795b6806236d74ccb14de1f3a92010fcd7dad25aaef63d316aed",
    ('python', 0, 0):
        "c28e98ff25a7d178156771f668e7ec9e3dd03f46531481e59bb3bacfd16af9f9",
    ('python', 0, 1):
        "610fd7c2dae701dbec7facf753dda73c2e893018804b280687768355310d6f36",
    ('python', 5, 0):
        "447ea38ff63fceb736d44f2fb63f6428d4a34ddf21205ecdcfeb0998e13fac73",
    ('python', 5, 1):
        "2fad7122b4f6d14c534e95cbc10340afc5fb89e7223c81b2b2226f390683a1dd",
    ('tomcat', 0, 0):
        "eb7dafb26431432912a60f2ca48326680ac547ca590acdc250cca873a4d3d5d4",
    ('tomcat', 0, 1):
        "7271bc8d9c7a6323c305d081bc6e1fb89c44820d2807af9fac3cd22f5964c572",
    ('tomcat', 5, 0):
        "0790c256cac7d41e3497adea60c304a26359ed84b272859202c9e78d0d13f3ce",
    ('tomcat', 5, 1):
        "30b73fb7c6d7129842a9d0b23669e2f2a2685e3ef40f5f5667ca12f63c15a3fa",
    ('verilator', 0, 0):
        "798db0991b440741c29f4805a819527df72d792dc5f48fae499d71b710e14c4f",
    ('verilator', 0, 1):
        "bbe9969e8f318c6aa72025b324cccd90e5094a08fb9b9878f2bad279676d3fcb",
    ('verilator', 5, 0):
        "bfd61a1ac325165701570a54da3fe4948bf95380ec7e381d45dbc0e853918840",
    ('verilator', 5, 1):
        "2816ee05261507b427356de7d72bc4d17b235211298e5abc202d3329ae99fe34",
    ('wordpress', 0, 0):
        "cb2c0ccec4e779d11329ccba4f1ae4189f87545519700c770d6945caec9f70f0",
    ('wordpress', 0, 1):
        "e6dc64bf2d383f6a048dd709d5c26f821cdd0d0fe900969e8b2c8ed1186652bf",
    ('wordpress', 5, 0):
        "13f641dc8060d6e4c7e3edb338b84bf5bb880ceb65f6a72bcaec2d9b84cac571",
    ('wordpress', 5, 1):
        "61b5ef7aa0b3f80c02b83520bfdf3f261a747c914c8f6b96f77874d7578d0ba7",
}

#: app -> digest of its static layout.
LAYOUT_DIGESTS = {
    'cassandra':
        "82d812d2bedb7d93059e8d5a64350dd3ba40226c7b4d55f0a278e04e17d844b8",
    'clang':
        "17d02d6e967990dc925818ca8562514b55019e19653abba12963bfbd3724beb2",
    'drupal':
        "2a23b5da2abc7939ef35fbb37871ade1a7bef0a37fc068906841bc6d990de32d",
    'finagle-chirper':
        "a55746f0ec27422d82807e53035dd1be0d3ad92ba7213581a3cbd47488d57409",
    'finagle-http':
        "7e661847492addc4a37e3915e64c2774fe0d42994da389d0ddf8b8cab3763d37",
    'kafka':
        "3cbb0cfb91ffeecf2e507a9acd95315d9755527f7db19739d1748735fe19706c",
    'mediawiki':
        "ec742032cf824ece7af531b00d05193ca257d024c1aa86948e31e313a292ef5b",
    'mysql':
        "0ae916f153f6da6d11b865b59614ce908219d0d22aa37040928a6a85c9c0da2c",
    'postgresql':
        "3fee4b76cf59ac5208dc6a6e6a65ca8a0c0f6954d620d32a6ec5f5d5b6ef090c",
    'python':
        "ea782fea076f1a8903c186a6bda9e72aaec829a645e8713442c0d86838c4c3be",
    'tomcat':
        "4a8d3eee8a80853ea06cdcfc1ea0108657e982a8f96e2c621dee56422d578a74",
    'verilator':
        "1841639951d42d96682cce1e619f75fecf5af30c1a1c8a63b64123e59bdd797f",
    'wordpress':
        "177bf1e86ede42f8197fcac20367ae3fe8c8e1a2751bbb060561dfc132079d29",
}

#: (app, length) -> digest of an input-0, seed-0 trace of that length.
SHORT_DIGESTS = {
    ('python', 0):
        "694c3918db6b7305277fadab32e03a225b8b1ed1cfebd5e47245fcc966361abe",
    ('python', 1):
        "1dc2767d7c125ee394321b9b9bd02502291a384af093d68b1354974cde41482b",
    ('python', 7):
        "4ddb1b20358bd531a9e30b317e014399b13cdf4c514c533f76d26d15b63ae16e",
    ('verilator', 0):
        "694c3918db6b7305277fadab32e03a225b8b1ed1cfebd5e47245fcc966361abe",
    ('verilator', 1):
        "2807eb74fc3a3d0e2f030b4cb5a9850901efa62821bdc1271472d76233deddb1",
    ('verilator', 7):
        "7dd67f5d2c96a0ad2795f2ce74b8dcd3eaa854521960c8d56b3efe1d70dcc5eb",
}

#: digest of a layout with no hot loops (the cold-chain-only branch).
NO_LOOPS_DIGEST = (
    "edbb4166d5fed99e0e97e475e65f0703c829e4db7e015616ea09d9863187808d")


def no_loops_workload() -> SyntheticWorkload:
    return SyntheticWorkload(WorkloadSpec(
        name="no-hot-loops",
        layout=LayoutParams(n_hot_loops=0, n_warm_funcs=4,
                            n_cold_branches=300),
        mix=MixParams(cold_burst_len=(5, 40)),
        default_length=5000))


@pytest.fixture(scope="module")
def workloads():
    return {name: make_app_workload(name) for name in app_names()}


@pytest.mark.parametrize("app", app_names())
def test_app_traces_are_pinned(workloads, app):
    w = workloads[app]
    got = {(app, input_id, seed):
           trace_digest(w.generate(input_id=input_id, length=LENGTH,
                                   seed=seed))
           for input_id in (0, 5) for seed in (0, 1)}
    assert got == {k: v for k, v in APP_DIGESTS.items() if k[0] == app}


@pytest.mark.parametrize("app", app_names())
def test_static_layout_is_pinned(workloads, app):
    assert layout_digest(workloads[app]) == LAYOUT_DIGESTS[app]


@pytest.mark.parametrize("length", [0, 1, 7])
@pytest.mark.parametrize("app", ["python", "verilator"])
def test_short_traces_are_pinned(workloads, app, length):
    trace = workloads[app].generate(length=length)
    assert len(trace) == length
    assert trace_digest(trace) == SHORT_DIGESTS[(app, length)]


def test_cold_chain_only_layout_is_pinned():
    w = no_loops_workload()
    assert w._lay.loops == []
    assert trace_digest(w.generate(input_id=2, seed=3)) == NO_LOOPS_DIGEST
