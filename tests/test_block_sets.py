"""`spin.block_sets` against message sets listed one by one.

A naive builder walks the blocks in Python: block b's query rows
rows[b, q] each read key group group[b], members[offsets[j]:offsets[j + 1]]
for j = group[b], one (keys, query row) set per q, and a block whose
group is empty has no sets. `block_sets` must give those sets in
ascending key count, then block order, with one entry per distinct count,
and a `MessageSets` layout (`rows`, `keys`, `n_pairs`) that flattens
them. The attention op's row chunks slice exactly these blocks.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from graphfill.spin import block_sets


@st.composite
def grouped_blocks(draw):
    """(members, offsets, group, rows): 1-6 key groups of 0-5 members
    (member ids repeat across groups), 0-8 blocks of 1-4 query rows."""
    sizes = draw(st.lists(st.integers(0, 5), min_size=1, max_size=6))
    offsets = np.concatenate(([0], np.cumsum(sizes))).astype(np.intp)
    members = np.array(draw(st.lists(st.integers(0, 30), min_size=sum(sizes),
                                     max_size=sum(sizes))), dtype=np.intp)
    n_blocks, wq = draw(st.integers(0, 8)), draw(st.integers(1, 4))
    group = np.array(draw(st.lists(st.integers(0, len(sizes) - 1),
                                   min_size=n_blocks, max_size=n_blocks)),
                     dtype=np.intp)
    rows = np.array(draw(st.lists(st.integers(0, 40), min_size=n_blocks * wq,
                                  max_size=n_blocks * wq)),
                    dtype=np.intp).reshape(n_blocks, wq)
    return members, offsets, group, rows


def naive_sets(members, offsets, group, rows):
    """[(c, block, keys, query row)] of every set, in the documented order."""
    sets = []
    for b in range(len(group)):
        keys = [int(m) for m in members[offsets[group[b]]:offsets[group[b] + 1]]]
        for q in range(rows.shape[1]):
            if keys:
                sets.append((len(keys), b, keys, int(rows[b, q])))
    return sorted(sets, key=lambda s: (s[0], s[1]))  # stable: q order kept


@settings(max_examples=200)
@given(grouped_blocks())
def test_block_sets_match_naive_set_lists(case):
    members, offsets, group, rows = case
    want = naive_sets(*case)
    got = block_sets(*case)

    counts = [keys.shape[1] for keys, _ in got.blocks]
    assert counts == sorted(set(s[0] for s in want))  # one entry per c, ascending
    listed = [(keys[g].tolist(), int(query))
              for keys, block_rows in got.blocks
              for g in range(len(keys)) for query in block_rows[g]]
    assert listed == [(keys, query) for _, _, keys, query in want]

    assert got.rows.dtype == np.intp and got.keys.dtype == np.intp
    assert got.rows.tolist() == [query for *_, query in want]
    block_keys = []  # one key list per non-empty block, in entry order
    for c, b, keys, _ in want:
        if not block_keys or block_keys[-1][0] != b:
            block_keys.append((b, keys))
    assert got.keys.tolist() == [m for _, keys in block_keys for m in keys]
    sizes = [c for c, *_ in want]
    assert [keys.shape[1] for keys, rows in got.blocks
            for _ in range(rows.size)] == sizes
    assert got.n_pairs == len(got) == sum(sizes)
