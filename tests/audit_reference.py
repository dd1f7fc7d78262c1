"""The audits as they were written with one Partition object per sampled row.

A replay oracle for ``analysis.verify_superadditivity`` and
``analysis.classify_externalities``: the same generator calls in the same
order, with every partition built as a ``Partition`` and read through
``UtilityTable.partition_values``.
"""

import math

import numpy as np

from maccoop.analysis import (
    EXTERNALITY_TOL,
    ExternalityWitness,
    MergeSample,
    SuperadditivityReport,
)
from maccoop import analysis
from maccoop.cores import grand_value
from maccoop.equilibrium import _every_partition, _table_and_stalls
from maccoop.errors import InvalidArgument
from maccoop.model import Coalition, Partition


def random_partition(rng, k, min_blocks):
    for _ in range(1000):
        labels = [0]
        top = 0
        for _ in range(k - 1):
            lab = int(rng.integers(0, top + 2))
            labels.append(lab)
            top = max(top, lab)
        part = Partition.from_rgs(labels)
        if len(part) >= min_blocks:
            return part
    raise InvalidArgument(f"cannot sample a partition of {k} with {min_blocks}+ blocks")


def verify_superadditivity(scenario, trials, seed):
    rng = np.random.default_rng(seed)
    k = scenario.k
    table, stalled = _table_and_stalls(scenario, _every_partition(scenario))
    if 0 in stalled:
        raise stalled[0]
    skip = {tuple(table.rgs[row].tolist()) for row in stalled}
    skipped = 0
    counterexample = None
    passed = True
    trials_run = trials if k > 1 else 0
    for _ in range(trials_run):
        before = random_partition(rng, k, 2)
        n = len(before)
        r = int(rng.integers(2, n + 1))
        chosen = rng.choice(n, size=r, replace=False)
        chosen_masks = [before.blocks[i].mask for i in chosen]
        merged_mask = 0
        for m in chosen_masks:
            merged_mask |= m
        keep = [b for b in before.blocks if b.mask not in chosen_masks]
        after = Partition(k, tuple(keep) + (Coalition(merged_mask),))
        if before.rgs in skip or after.rgs in skip:
            skipped += 1
            continue
        vals_before = table.partition_values(before)
        vals_after = table.partition_values(after)
        parts_total = sum(vals_before[m] for m in chosen_masks)
        merged_value = vals_after[merged_mask]
        # read at call time, so a test may move the tolerance
        if merged_value < parts_total - analysis.SUPERADDITIVITY_TOL:
            passed = False
            if counterexample is None:
                counterexample = MergeSample(before, after, Coalition(merged_mask),
                                             merged_value, parts_total)
    gaps = np.delete(table.totals, list(stalled)) - grand_value(scenario, table=table)
    worst = float(np.fmax.reduce(gaps, initial=-math.inf))
    cohesive = not (gaps > analysis.SUPERADDITIVITY_TOL).any()
    skipped += len(stalled)
    return SuperadditivityReport(passed and cohesive, trials_run, skipped,
                                 counterexample, cohesive, worst)


def classify_externalities(scenario, trials, seed):
    """(classification, witnesses) as the audit found them."""
    rng = np.random.default_rng(seed)
    mergers = []
    for _ in range(trials):
        before = random_partition(rng, scenario.k, 3)
        i, j = rng.choice(len(before), size=2, replace=False)
        merged = Coalition(before.blocks[i].mask | before.blocks[j].mask)
        externals = [b for idx, b in enumerate(before.blocks) if idx not in (i, j)]
        mergers.append((before, Partition(scenario.k, tuple(externals) + (merged,)), externals))
    rows = dict.fromkeys(p.rgs for before, after, _ in mergers for p in (before, after))
    table, stalled = _table_and_stalls(scenario, np.array(list(rows), dtype=np.int8))
    skip = {tuple(table.rgs[row].tolist()) for row in stalled}
    witnesses = []
    has_pos = False
    has_neg = False
    for before, after, externals in mergers:
        if before.rgs in skip or after.rgs in skip:
            continue
        vals_before = table.partition_values(before)
        vals_after = table.partition_values(after)
        for ext in externals:
            vb = vals_before[ext.mask]
            va = vals_after[ext.mask]
            witnesses.append(ExternalityWitness(before, after, ext, vb, va))
            if va > vb + EXTERNALITY_TOL:
                has_pos = True
            elif va < vb - EXTERNALITY_TOL:
                has_neg = True
    if has_pos and has_neg:
        kind = "mixed"
    elif has_pos:
        kind = "positive"
    else:
        kind = "negative"
    return kind, tuple(witnesses)
