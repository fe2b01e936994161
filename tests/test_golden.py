"""Golden digests: seeded outputs that refactors must not move.

Each case serializes its result with report_to_dict(..., deterministic=True)
as sorted-key JSON (floats in shortest round-trip form) and pins the
SHA-256 of those bytes.  A digest changes only when some value changes in
its last bit, so a passing run shows the outputs are bit-identical to the
ones the digests were taken from.  The dense BLAS kinds are left out: their
matrix products may round differently with the BLAS thread count.

After an intended behaviour change, run this file as a script to print
every digest, and record in CHANGES.md why each one moved.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest

from fastjl import attacks, harness, linalg, privacy, transforms
from fastjl.randomness import BitSource
from fastjl.reports import report_to_dict


def _digest(report) -> str:
    payload = report_to_dict(report, seed=0, deterministic=True)
    text = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def _jlp(kind, n=256, r=16, family="random-unit", seed=11):
    return lambda: harness.jlp_failure_rate(kind, n, r, 0.5, family, 1000, seed)


def _attack(pair):
    return lambda: attacks.run_attack(pair, 1000, 3)


def _control():
    params = privacy.DpParams(alpha=1.0, beta=0.1, r=16)
    pair = attacks.pair_hadamard(64, 2840.0)
    return attacks.gaussian_control(pair, "new-gaussian", params, 1000, 5)


def _publish(publish, lift):
    def case():
        a = BitSource(21).draw_gaussian(5 * 12).reshape(5, 12)
        if not lift:
            # Singular values near 4000, above the floor of about 2800.
            a += 4000.0 * np.eye(5, 12)
        params = privacy.DpParams(alpha=1.0, beta=0.1, r=16, lift=lift)
        return publish(a, params, seed=9)

    return case


def _mm_stream():
    params = privacy.DpParams(alpha=1.0, beta=0.1, r=16, lift=True)
    cols = BitSource(22).draw_gaussian(10 * 7).reshape(10, 7)
    sk = privacy.mm_sketch_init(params, 4, 3, seed=13, kind="new-gaussian")
    for c in range(4):
        privacy.mm_sketch_update(sk, "A", c, cols[:, c])
    for c in range(3):
        privacy.mm_sketch_update(sk, "B", c, cols[:, 4 + c])
    privacy.mm_sketch_update(sk, "A", 1, cols[:, 6])
    return {"y_a": sk.y_a, "y_b": sk.y_b}


def _draw_counts():
    kinds = [k if k != "fjlt" else "fjlt:0.25" for k in transforms.ALL_TAGS]
    out = {}
    for i, text in enumerate(kinds):
        t = transforms.build(transforms.parse_kind(text), 64, 4, BitSource(30 + i), allow_large_r=True)
        out[text] = t.draw_counts
    return out


def _cut():
    edges = [
        (0, 1, 2.0), (1, 2, 1.0), (2, 3, 3.0),
        (3, 4, 1.5), (4, 5, 0.5), (0, 5, 1.0),
    ]
    params = privacy.DpParams(alpha=1.0, beta=0.1, r=4)
    cs = privacy.cut_sketch(edges, 6, params, seed=17, kind="new-gaussian")
    queries = [privacy.cut_query(cs, vs) for vs in ([0], [0, 1, 2], [1, 3, 5])]
    return {"sketch": cs, "queries": queries}


def _lr_stream():
    params = privacy.DpParams(alpha=1.0, beta=0.1, r=16, lift=True)
    cols = BitSource(23).draw_gaussian(10 * 5).reshape(10, 5)
    sk = privacy.lr_sketch_init(params, 4, seed=19, kind="new-gaussian")
    for c in range(4):
        privacy.lr_update(sk, c, cols[:, c])
    privacy.lr_update(sk, 2, cols[:, 4])
    return {"y_a": sk.y_a}


# apply_columns of every kind that needs no BLAS matrix product.
APPLY_DIGESTS = {
    "new-rademacher": "edd8382e1e2af30dda26176e56f5c1085019fc4b942a1719ba1c1e8a0815198c",
    "new-gaussian": "3d5fea78fd88d14ee47fa96f5e268d60aa18908d04bbbcedde925f108f7c17d9",
    "new-sparse-g": "0ecbe2e2cf0174bd1ded4688e482a88e7531285db9743e847a98c09eacb42b8e",
    "subsampled-hadamard": "0015ac171833a3c159fdb4a6e22a74dd2ffad3933fb57fb5884c7d2be5b79e2a",
    "partial-circulant": "82c6f672c1b54680a0940f8d1b83f0f3cf03cf61a2699c1f7fc8d1e5fd7bc11c",
    "hash-sparse": "7c2318f04c5f93e79450237ad5f30cdbeaaa3456975d8b68f42ed0e8e4df10a3",
    "ailon-liberty": "ba98d3c30e15100e12333d615487c848f8d147e107dc60c9f16cafee87b3dfa4",
}


def _apply(text, i):
    def case():
        x = BitSource(50).draw_gaussian(64 * 3).reshape(64, 3)
        kind = transforms.parse_kind(text)
        t = transforms.build(kind, 64, 4, BitSource(60 + i), allow_large_r=True)
        return {"out": transforms.apply_columns(t, x)}

    return case


def _apply_large(text, i):
    # n=65536 puts one column in each of the butterfly's column blocks.
    def case():
        x = BitSource(51).draw_gaussian(65536 * 8).reshape(65536, 8)
        kind = transforms.parse_kind(text)
        t = transforms.build(kind, 65536, 64, BitSource(70 + i))
        return {"out": transforms.apply_columns(t, x)}

    return case


def _fwht(shape, view, seed):
    def case():
        x = BitSource(seed).draw_gaussian(int(np.prod(shape))).reshape(shape)
        return {"out": linalg.fwht_normalized(view(x))}

    return case


def _fjlt_factors():
    t = transforms.build(transforms.parse_kind("fjlt:0.25"), 64, 4, BitSource(40))
    return {"signs": t.factors["signs"], "dense": t.factors["dense"], "scale": t.scale}


def _draw_script():
    # Interleaved draws at odd bit alignments, so every draw starts both on
    # and off a 64-bit block boundary; Gaussian draws skip whole blocks and
    # leave the pending bits for the next bit draw.
    src = BitSource(77, 5)
    script = [
        lambda: src._take_bits(1),
        lambda: src.draw_gaussian(7),
        lambda: src._take_bits(63),
        lambda: src.draw_uniform_index(3),
        lambda: src._take_bits(65),
        lambda: src.draw_uniform_indices(6, 100),
        lambda: src.draw_rademacher(13),
        lambda: src.sample_permutation(3),
        lambda: src.draw_gaussian(10),
        lambda: src.draw_uniform_index(1000),
        lambda: src._take_bits(1000),
        lambda: src.draw_uniform_indices(1000, 37),
        lambda: src.sample_permutation(1024),
        lambda: src.draw_rademacher(64),
        lambda: src.draw_gaussian(1),
        lambda: src._take_bits(1),
    ]
    steps = []
    for draw in script:
        out = draw()
        steps.append(
            {
                "dtype": str(np.asarray(out).dtype),
                "out": out,
                "counters": (src.bits_consumed, src.gaussian_samples_consumed),
            }
        )
    return {"steps": steps}


GOLDEN = {
    "jlp-new-gaussian": (
        _jlp("new-gaussian"),
        "fc3c53c87eac7cf41fa294a689fa15d890937e20d2975e9158444c775635f572",
    ),
    "jlp-new-rademacher": (
        _jlp("new-rademacher"),
        "ce0f2532c29e924a8cd68ec53f03961d58fd3b8c3da166513cc227ab785405aa",
    ),
    # At n=16 the sign bits leave 48 bits of their block pending, so every
    # later draw of a trial starts mid-word.
    "jlp-n16-new-gaussian": (
        _jlp("new-gaussian", 16, 4, seed=12),
        "ff900a10bc2404035b404fd033c54a64c8aee5ebb252c25a50135db7de6a81d7",
    ),
    "jlp-n16-new-rademacher": (
        _jlp("new-rademacher", 16, 4, seed=12),
        "aadf818c27c03c072b7d7f0cd8bbfe5dde2ea82d756f4ad419a424c6b23a86b9",
    ),
    "jlp-n1024-basis-new-gaussian": (
        _jlp("new-gaussian", 1024, 64, "basis", seed=13),
        "1ced8fa9e7971d50c3ecb7d09b96b49553a2c3e15aa7fbeda740d240ca845883",
    ),
    "jlp-n1024-basis-new-rademacher": (
        _jlp("new-rademacher", 1024, 64, "basis", seed=13),
        "c8acad9787b773e03c3621cecb3016ec75428b02fb3bdb74429407c62d7189cf",
    ),
    "jlp-n1024-spike-new-gaussian": (
        _jlp("new-gaussian", 1024, 64, "spike", seed=14),
        "f4daef2e600fab479b6c259ea23ae3b4442bd70f850908ed28a93b5683336d8e",
    ),
    "jlp-n1024-spike-new-rademacher": (
        _jlp("new-rademacher", 1024, 64, "spike", seed=14),
        "31f27386a59d0dbd12d3b67d8bc01befd4da36238c4ae16e7323b35bd993c792",
    ),
    "block-norm-check": (
        lambda: harness.block_norm_check(64, 4, 0.5, 500, seed=31),
        "b31c0486ece57436fe4eeca2c2ed1538722bd2c77facd3b34a4f28ed322d8632",
    ),
    "block-nonzero-check-basis": (
        lambda: harness.block_nonzero_check(256, 16, 0.3, 300, seed=32, family="basis"),
        "a936ce0a0b652454a62ceb374f5e336beb323149793b4d1bc71bdc240327711d",
    ),
    "infinity-norm-check": (
        lambda: harness.infinity_norm_check(128, 0.05, 300, "random-unit", seed=33),
        "9b58c0817c4092830684fb58a0d1ed93fc28975783e1e367857289301a114e6d",
    ),
    "attack-hash-sparse": (
        _attack(attacks.pair_hadamard(64, 10.0)),
        "523586ae3df4f31e173dcb0a2646288444d016c30b5b3768d9dc654fa7e48bf1",
    ),
    "attack-combined-rows": (
        _attack(attacks.pair_bounded_orthonormal(64, 10.0)),
        "52a4f17aff1aaa3c39f5366c2e8302797323d7b79232cfe8123378cbe42f5e61",
    ),
    "control-new-gaussian": (
        _control,
        "104f8a33b2f2ce8d7d309d8b9ac91cbaab071ab4874838c2dce6c4f047a03c76",
    ),
    "publish-first-new-gaussian": (
        _publish(privacy.publish_first_moment, lift=True),
        "48d6692b48a7e08bedf3abba12f9783a72f1635a936a2b659d8c8ab9389dcdd1",
    ),
    "publish-first-floor-checked": (
        _publish(privacy.publish_first_moment, lift=False),
        "c34990eae10544e6e175c8d287465d162414a6369d39ec68c1fc3ce35a9f7a0c",
    ),
    "publish-second-new-gaussian": (
        _publish(privacy.publish_second_moment, lift=True),
        "07dab30a5a9d0d10baaba09052409cab2811effff4608313c556a42c94516237",
    ),
    "mm-stream-new-gaussian": (
        _mm_stream,
        "b7f6214ade960ed6f69c8758f412d526457c9065f16d9c55650880bc5c9bf959",
    ),
    "draw-counts-every-kind": (
        _draw_counts,
        "877293ce4ba527742543a6025869d2fb113ea8dcb91fb04b426d5ed2df7472fd",
    ),
    "fjlt-0.25-factors": (
        _fjlt_factors,
        "c06595a7563e6afc106f8b8e95bbea50620e34e75aa4365435f73a690c1a101b",
    ),
    "attack-iterated": (
        _attack(attacks.pair_iterated(64, 10.0, 3)),
        "45b562bc981bd3bb70689bcbe3bde547cd196bc9837792cf7ed2b5469b7c678a",
    ),
    "attack-circulant": (
        _attack(attacks.pair_circulant(64, 10.0)),
        "090964b2de7831ab045fe645759727f6afa26f7f2bb20c37c426b4086d1476d4",
    ),
    "cut-new-gaussian": (
        _cut,
        "0adc463163df86cd1a356d7fdb79ee5619478e5695fad3cf62103cbff9ac228e",
    ),
    "lr-stream-new-gaussian": (
        _lr_stream,
        "d982972b40136898f5b46f38371e754d3162cfdd32abe8c12e2bc12166d050a2",
    ),
    "publish-second-floor-checked": (
        _publish(privacy.publish_second_moment, lift=False),
        "055975c8fbd2ada304b638e6a3a5f7aea4681c3acda3fea539dd8211850e13bb",
    ),
    "draw-script-interleaved": (
        _draw_script,
        "1b8f902dabd734f327f6e3bb3832afed4a691cd7f6333b3bdd2ce612409df397",
    ),
}
GOLDEN.update(
    {
        f"apply-{text}": (_apply(text, i), digest)
        for i, (text, digest) in enumerate(APPLY_DIGESTS.items())
    }
)
# Butterfly inputs that fill one column block or span several, in
# every layout its callers pass: a 65536-vector, a C-order matrix, the
# harness's F-order transpose and a strided column view.
GOLDEN.update(
    {
        "fwht-65536-vector": (
            _fwht((65536,), lambda x: x, 80),
            "e4479cb4c0ff1f77f5a98ea91a7cea530a5f2720e4a3efa2e90004dab6732e32",
        ),
        "fwht-65536x8": (
            _fwht((65536, 8), lambda x: x, 81),
            "974602850a3a6daac5ed80ad33a1131b860d1523c50693771112c767d899b2bf",
        ),
        "fwht-1024x16-transposed": (
            _fwht((16, 1024), lambda x: x.T, 82),
            "0714b0bdfbfb0c0857629270630d2a6009e490587ea510e0c44b62b54dfb8c29",
        ),
        "fwht-4096x40-strided": (
            _fwht((4096, 80), lambda x: x[:, ::2], 83),
            "4cf80082c4f883cf98013fbf961c3d58f23fc6852cb4720008d311c0d3f55132",
        ),
        "apply-n65536-hash-sparse": (
            _apply_large("hash-sparse", 0),
            "9449c1b0abb62f44f685479d75c79fe259ef78e01dc3971518e5116b31021477",
        ),
        "apply-n65536-ailon-liberty:3": (
            _apply_large("ailon-liberty:3", 1),
            "b13ec500cfcb2681c8629782f4fe01f3aeccf2abaf4ea0f4a5eac99668c5a0ba",
        ),
    }
)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_digest(name):
    case, expected = GOLDEN[name]
    assert _digest(case()) == expected


if __name__ == "__main__":
    for name in sorted(GOLDEN):
        print(name, _digest(GOLDEN[name][0]()))
