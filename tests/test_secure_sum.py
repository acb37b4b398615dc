import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fedmesh.secure_sum import (
    FixedPointCodec,
    MaskedShare,
    PairwiseSeedMatrix,
    SecureSumAbort,
    mask,
    mask_words,
    unmask_sum,
)
from fedmesh.rng import derive_seed, mix64, mix64_array

CODEC = FixedPointCodec(scale_bits=24)


def test_encode_basics():
    assert CODEC.encode(np.array([0.0]))[0] == 0
    assert CODEC.encode(np.array([1.0]))[0] == 2**24
    # Negative values wrap to two's complement.
    assert CODEC.encode(np.array([-1.0]))[0] == np.uint64(2**64 - 2**24)


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=50, deadline=None)
def test_codec_round_trip(seed):
    values = np.random.default_rng(seed).uniform(-100.0, 100.0, 2000)
    decoded = CODEC.decode(CODEC.encode(values))
    assert np.max(np.abs(decoded - values)) <= 2.0**-24


def test_codec_round_trip_near_limit():
    values = np.array([2.0**30 - 1.0, -(2.0**30) + 1.0, 2.0**29 + 0.12345])
    decoded = CODEC.decode(CODEC.encode(values))
    assert np.max(np.abs(decoded - values)) <= 2.0**-24


def test_encode_overflow():
    with pytest.raises(OverflowError):
        CODEC.encode(np.array([2.0**40]))
    with pytest.raises(ValueError):
        CODEC.encode(np.array([np.nan]))


def test_seed_matrix_symmetric_and_complete():
    matrix = PairwiseSeedMatrix.from_root_seed(5, [0, 1, 2, 3])
    for a in range(4):
        for b in range(4):
            if a != b:
                assert matrix.seed_for(a, b) == matrix.seed_for(b, a)
    with pytest.raises(SecureSumAbort):
        matrix.seed_for(0, 9)


def test_mask_words_deterministic_and_round_dependent():
    a = mask_words(123, round_index=0, dim=16)
    assert np.array_equal(a, mask_words(123, round_index=0, dim=16))
    assert not np.array_equal(a, mask_words(123, round_index=1, dim=16))
    assert not np.array_equal(a, mask_words(124, round_index=0, dim=16))


def test_single_client_mask_is_identity():
    matrix = PairwiseSeedMatrix.from_root_seed(1, [0])
    encoded = CODEC.encode(np.array([1.5, -2.25]))
    for participants in ([0], []):
        share = mask(encoded, 0, matrix, participants, round_index=0)
        assert np.array_equal(share.masked_values, encoded)
        # A copy, so the share does not change with the caller's array.
        assert not np.shares_memory(share.masked_values, encoded)


def test_two_client_masks_cancel():
    matrix = PairwiseSeedMatrix.from_root_seed(2, [0, 1])
    a = CODEC.encode(np.array([1.0, 2.0, -3.0]))
    b = CODEC.encode(np.array([0.5, -0.25, 4.0]))
    m0 = mask(a, 0, matrix, [0, 1], round_index=7)
    m1 = mask(b, 1, matrix, [0, 1], round_index=7)
    assert np.array_equal(m0.masked_values + m1.masked_values, a + b)
    # Individually masked values differ from the raw encodings.
    assert not np.array_equal(m0.masked_values, a)


def test_mask_cancellation_is_exact_for_random_sets():
    rng = np.random.default_rng(17)
    for trial in range(25):
        n = int(rng.integers(1, 9))
        dim = int(rng.integers(1, 40))
        matrix = PairwiseSeedMatrix.from_root_seed(trial, range(n))
        encodeds = [CODEC.encode(rng.uniform(-50, 50, dim)) for _ in range(n)]
        shares = [mask(e, i, matrix, range(n), trial) for i, e in enumerate(encodeds)]
        lhs = np.zeros(dim, dtype=np.uint64)
        for share in shares:
            lhs += share.masked_values
        rhs = np.zeros(dim, dtype=np.uint64)
        for encoded in encodeds:
            rhs += encoded
        assert np.array_equal(lhs, rhs)


def test_mask_propagates_deltas_exactly():
    # Changing one raw coordinate shifts the masked coordinate by the same
    # modular delta; the mask itself stays put.
    matrix = PairwiseSeedMatrix.from_root_seed(9, [0, 1, 2])
    base = np.array([1.0, 2.0, 3.0])
    bumped = base.copy()
    bumped[1] += 0.5
    share_a = mask(CODEC.encode(base), 0, matrix, [0, 1, 2], 4)
    share_b = mask(CODEC.encode(bumped), 0, matrix, [0, 1, 2], 4)
    delta = share_b.masked_values - share_a.masked_values
    expected = CODEC.encode(bumped) - CODEC.encode(base)
    assert np.array_equal(delta, expected)


def test_unmask_sum_known_values():
    matrix = PairwiseSeedMatrix.from_root_seed(3, [0, 1, 2])
    vectors = [np.array([1.0, 2.0]), np.array([3.0, 4.0]), np.array([5.0, 6.0])]
    shares = [mask(CODEC.encode(v), i, matrix, [0, 1, 2], 0) for i, v in enumerate(vectors)]
    total = unmask_sum(shares, CODEC, [0, 1, 2])
    assert np.max(np.abs(total - np.array([9.0, 12.0]))) <= 3 * 2.0**-24


def test_unmask_sum_zero_vectors():
    matrix = PairwiseSeedMatrix.from_root_seed(4, [0, 1])
    shares = [mask(CODEC.encode(np.zeros(5)), i, matrix, [0, 1], 1) for i in range(2)]
    assert np.array_equal(unmask_sum(shares, CODEC, [0, 1]), np.zeros(5))


def test_unmask_sum_aborts_on_missing_share():
    matrix = PairwiseSeedMatrix.from_root_seed(5, [0, 1, 2])
    shares = [mask(CODEC.encode(np.ones(3)), i, matrix, [0, 1, 2], 0) for i in (0, 1)]
    with pytest.raises(SecureSumAbort, match="missing"):
        unmask_sum(shares, CODEC, [0, 1, 2])


def test_unmask_sum_aborts_on_duplicate():
    matrix = PairwiseSeedMatrix.from_root_seed(6, [0, 1])
    share = mask(CODEC.encode(np.ones(3)), 0, matrix, [0, 1], 0)
    with pytest.raises(SecureSumAbort, match="duplicate"):
        unmask_sum([share, share], CODEC, [0, 1])


def test_unmask_sum_aborts_on_round_mismatch():
    matrix = PairwiseSeedMatrix.from_root_seed(7, [0, 1])
    s0 = mask(CODEC.encode(np.ones(3)), 0, matrix, [0, 1], 0)
    s1 = mask(CODEC.encode(np.ones(3)), 1, matrix, [0, 1], 1)
    with pytest.raises(SecureSumAbort, match="round"):
        unmask_sum([s0, s1], CODEC, [0, 1])


def test_unmask_sum_aborts_on_dim_mismatch():
    s0 = MaskedShare(0, 0, np.zeros(3, dtype=np.uint64))
    s1 = MaskedShare(1, 0, np.zeros(4, dtype=np.uint64))
    with pytest.raises(SecureSumAbort, match="dimension"):
        unmask_sum([s0, s1], CODEC, [0, 1])


def test_decoded_sum_matches_float_sum():
    rng = np.random.default_rng(100)
    for trial in range(50):
        n = int(rng.integers(1, 9))
        dim = int(rng.integers(1, 65))
        matrix = PairwiseSeedMatrix.from_root_seed(1000 + trial, range(n))
        vectors = [rng.uniform(-200, 200, dim) for _ in range(n)]
        shares = [mask(CODEC.encode(v), i, matrix, range(n), trial) for i, v in enumerate(vectors)]
        decoded = unmask_sum(shares, CODEC, range(n))
        direct = np.sum(vectors, axis=0)
        assert np.max(np.abs(decoded - direct)) <= n * 2.0**-23


# Masks cancel, so neither the sum nor the goldens see a change to the
# splitmix64 stream; these words pin it.  Federations whose clients ran
# different streams would unmask to garbage.
def _hex(words):
    return [f"{int(w):#018x}" for w in words]


def test_mask_words_stream_is_pinned():
    assert _hex(mask_words(123, 0, 4)) == [
        "0xe050a2a38d8ef504",
        "0x9868b9a34e3ee6bb",
        "0x7c13a2e15b2c95f0",
        "0x82287c22d9870651",
    ]
    assert _hex(mask_words(2**64 - 1, 2**32 - 1, 3)) == [
        "0x723fd2d34e18928f",
        "0x86da131866eb53be",
        "0x3ab9bf7865075161",
    ]


def test_mask_share_is_pinned():
    ids = [3, 7, 11, 40]
    matrix = PairwiseSeedMatrix.from_root_seed(2024, ids)
    encoded = CODEC.encode(np.array([1.5, -2.25, 0.0, 3.0]))
    assert _hex(mask(encoded, 11, matrix, ids, 5).masked_values) == [
        "0xcd3d26f90a40fc22",
        "0x211abfb1d4da12ed",
        "0x1b1d4d64d3ca2b3c",
        "0x1ed5c085e86b2873",
    ]


def _reference_mask(encoded, client_id, matrix, participants, round_index):
    """The per-pair definition: + mask_words toward higher ids, - toward lower."""
    masked = np.array(encoded, dtype=np.uint64)
    for peer in participants:
        if peer == client_id:
            continue
        words = mask_words(matrix.seed_for(client_id, peer), round_index, len(masked))
        masked = masked + words if peer > client_id else masked - words
    return masked


@given(
    ids=st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=6, unique=True),
    root=st.integers(0, 2**64 - 1),
    dim=st.integers(1, 64),
    round_index=st.integers(0, 2**32 - 1),
    include_self=st.booleans(),
    data=st.data(),
)
@settings(max_examples=40, deadline=None)
def test_mask_equals_per_pair_reference(ids, root, dim, round_index, include_self, data):
    client_id = data.draw(st.sampled_from(ids))
    participants = data.draw(st.permutations(ids))
    if not include_self:
        participants = [p for p in participants if p != client_id]
    words = data.draw(st.lists(st.integers(0, 2**64 - 1), min_size=dim, max_size=dim))
    encoded = np.array(words, dtype=np.uint64)
    matrix = PairwiseSeedMatrix.from_root_seed(root, ids)
    share = mask(encoded, client_id, matrix, participants, round_index)
    expected = _reference_mask(encoded, client_id, matrix, participants, round_index)
    assert share.masked_values.dtype == np.uint64
    assert np.array_equal(share.masked_values, expected)


def test_mask_aborts_on_a_missing_pair_seed():
    matrix = PairwiseSeedMatrix.from_root_seed(8, [0, 1, 2])
    with pytest.raises(SecureSumAbort, match=r"missing pair seed for clients \(1, 99\)"):
        mask(CODEC.encode(np.ones(3)), 1, matrix, [0, 1, 2, 99], 0)


@given(st.lists(st.integers(0, 2**64 - 1), max_size=32))
@settings(max_examples=30, deadline=None)
def test_mix64_array_matches_mix64(values):
    mixed = mix64_array(np.array(values, dtype=np.uint64))
    assert [int(w) for w in mixed] == [mix64(v) for v in values]


@given(
    root=st.integers(0, 2**64 - 1),
    ids=st.lists(st.integers(0, 2**32 - 1) | st.integers(0, 60), min_size=1, max_size=40),
)
@example(root=2**64 - 1, ids=[2**32 - 1, 9, 0, 9, 40, 3])
@settings(max_examples=30, deadline=None)
def test_seed_table_equals_derive_seed(root, ids):
    matrix = PairwiseSeedMatrix.from_root_seed(root, ids)
    distinct = sorted(set(ids))
    for pos, a in enumerate(distinct):
        with pytest.raises(SecureSumAbort):
            matrix.seed_for(a, a)
        for b in distinct[pos + 1 :]:
            expected = derive_seed(root, "pair", a, b)
            assert matrix.seed_for(a, b) == expected
            assert matrix.seed_for(b, a) == expected


def test_seed_for_is_pinned():
    # Taken at the commit before the seeds became one table.  Masks cancel,
    # so no sum or golden would notice a changed pair seed.
    matrix = PairwiseSeedMatrix.from_root_seed(2024, [3, 7, 11, 40])
    assert hex(matrix.seed_for(3, 40)) == "0x64b06879ff52f013"
    assert hex(matrix.seed_for(7, 11)) == "0x16e386f67cb6f538"


def test_large_seed_table_equals_derive_seed():
    matrix = PairwiseSeedMatrix.from_root_seed(77, range(1024))
    pairs = np.random.default_rng(5).choice(1024, size=(200, 2))
    for a, b in pairs:
        if a == b:
            continue
        low, high = int(min(a, b)), int(max(a, b))
        assert matrix.seed_for(int(a), int(b)) == derive_seed(77, "pair", low, high)


@pytest.mark.parametrize(
    "client_id, participants, pair",
    [
        (5, [0, 1, 5], (5, 0)),  # the client is absent from the table
        (1, [0, 1, 3, 2], (1, 3)),  # a peer is absent
        (1, [0, 1, 2**40], (1, 2**40)),  # a peer id above the largest id
        (1, [0, 1, 2**63], (1, 2**63)),  # a peer id that only fits uint64
        (1, [0, 1, -1], (1, -1)),  # a negative peer id
        (1, [0, -1, 2**64], (1, -1)),  # ids no 64-bit integer type holds
    ],
)
def test_mask_aborts_on_an_unknown_id(client_id, participants, pair):
    # Only SecureSumAbort may escape: never IndexError, OverflowError or KeyError.
    matrix = PairwiseSeedMatrix.from_root_seed(8, [0, 1, 2])
    message = re.escape(f"missing pair seed for clients {pair}")
    with pytest.raises(SecureSumAbort, match=message):
        mask(CODEC.encode(np.ones(3)), client_id, matrix, participants, 0)
    with pytest.raises(SecureSumAbort, match=message):
        matrix.seed_for(*pair)


def test_negative_peer_does_not_wrap_to_the_top_id():
    matrix = PairwiseSeedMatrix.from_root_seed(8, [0, 1, 2**64 - 1])
    with pytest.raises(SecureSumAbort, match=r"missing pair seed for clients \(1, -1\)"):
        mask(CODEC.encode(np.ones(3)), 1, matrix, [0, 1, -1], 0)


def test_empty_seed_table_aborts():
    matrix = PairwiseSeedMatrix.from_root_seed(8, [])
    with pytest.raises(SecureSumAbort, match=r"missing pair seed for clients \(0, 1\)"):
        mask(CODEC.encode(np.ones(3)), 0, matrix, [0, 1], 0)


@pytest.mark.parametrize("participants", [[0.0, 1.0, 2.0], np.array([0, 1, 2], dtype=np.float64)])
def test_float_ids_mask_like_int_ids(participants):
    # Ids are looked up by value: 1.0 is client 1, so the share is masked.
    matrix = PairwiseSeedMatrix.from_root_seed(5, [0, 1, 2])
    encoded = CODEC.encode(np.array([0.25, -0.5]))
    share = mask(encoded, 0, matrix, participants, 3).masked_values
    assert np.array_equal(share, mask(encoded, 0, matrix, [0, 1, 2], 3).masked_values)
    assert not np.array_equal(share, encoded)


def test_an_absent_client_with_no_peers_keeps_its_words():
    matrix = PairwiseSeedMatrix.from_root_seed(8, [0, 1, 2])
    encoded = CODEC.encode(np.array([1.5, -2.0]))
    assert np.array_equal(mask(encoded, 5, matrix, [5], 0).masked_values, encoded)
    assert np.array_equal(mask(encoded, 5, matrix, [], 0).masked_values, encoded)
