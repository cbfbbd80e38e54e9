"""Plain-Python reference implementations the tests check the library against.

They are deliberately naive (math.dist loops, Counter-based entropies,
an IE walk that builds one (id, body) pair per element) so they share
no code with the paths they check. The shortcut references are the
exception, and each drops only the shortcut it checks:
``reference_read_capture`` reuses the library's pcap header check and
Radiotap layout decoder but walks the records one by one, copies each
record and its body and decodes every Radiotap header in full;
``reference_group_bursts`` is the library's
per-frame grouping loop over lists of ``Frame`` records, with its IE
walk, before bursts were cut with array operations;
``reference_read_feature_file`` is the feature-file reader's rule,
blank and ``#`` lines skipped before the header and every csv record
after it a row numbered by the line it starts on, with the reader's
checks, giving rows in file order; it parses every record before it
checks any;
``reference_write_feature_file`` and ``reference_write_labeling_file``
are the two writers as one ``csv.writer`` row per burst, before their
text was built from columns; ``parse_radiotap_fields`` is the
library's Radiotap layout step run on one header, then a plain read of
its flags byte and channel frequency;
``padded`` is ``pad_matrix``'s row loop before it became one scatter;
``reference_refine_labels`` reuses the
library's k-means and elbow with no distinct-row cap on k;
``all_rows_dbscan`` is the library's vectorized
kernel before it ran over distinct rows; ``plain_spherical_kmeans``
reuses the library's Lloyd loop and runs it for every restart, seeded by
``plain_seed_centers``, a D² loop with no memo of seeding states or of
repeated seeded centres; ``unguarded_fix_empty_clusters`` is the
k-means refill rule that may take a cluster's only member, which
``_fix_empty_clusters`` must agree with wherever it takes none;
``reference_run_protocol`` reuses the library's
stage functions and scoring, and per draw of ``reference_pools`` groups,
sorts, pads and normalizes the draw's own bursts, encodes their truth
labels and refines them with a fresh fine-stage cache;
``per_point_tune`` rests on the same pools and clusters every pool from
scratch at every grid point. These burst references work on plain
``BurstRow`` tuples and share no code with ``BurstTable``;
``burst_table`` and ``table_rows`` convert between the two.
"""

import csv
import math
import struct
from collections import Counter, deque
from dataclasses import replace
from itertools import accumulate
from typing import NamedTuple, Optional

import numpy as np

from probederand.clustering import (
    DBSCAN_BLOCK_ROWS,
    LABELING_FIELDS,
    NOISE,
    RESTARTS,
    DbscanConfig,
    _lloyd,
    _unit_rows,
    average_pairwise_similarity,
    dynamic_threshold,
    elbow_select_k,
    ie_only_cluster,
    spherical_kmeans,
    two_stage_cluster,
)
from probederand.features import FEATURE_FIELDS, BurstTable
from probederand.metrics import (
    METHOD_IE_ONLY,
    METHOD_TWO_STAGE,
    METHODS,
    TuneRow,
    _encode,
    _score,
    draw_subsets,
)
from probederand.pcap import (
    FC_PROBE_REQUEST,
    LINKTYPE_RADIOTAP,
    RT_FLAG_BAD_FCS,
    RT_FLAG_HAS_FCS,
    ChannelResolutionError,
    Error,
    FrameTable,
    ParseDiagnostics,
    _radiotap_layout,
    _unpack_global_header,
    ie_fields,
    mac_from_str,
)
from probederand.randomness import STREAM_KMEANS, child_seed, substream

IE_DS_PARAMETER_SET, IE_HT, IE_EXTENDED, IE_VENDOR = 3, 45, 127, 221
CHANNEL_OF_FREQUENCY = {2407 + 5 * channel: channel for channel in range(1, 14)}


class Frame(NamedTuple):
    """One Probe Request as a plain tuple: one ``FrameTable`` row."""

    timestamp: float
    source_mac: bytes
    capture_channel: int
    sequence_number: int
    ies: bytes


class BurstRow(NamedTuple):
    """One burst as a plain tuple."""

    burst_id: int
    source_mac: bytes
    ie_features: tuple
    channel_vector: tuple
    truth_device: Optional[str] = None
    ie_stable: bool = True

    @property
    def length(self):
        return len(self.channel_vector)


def burst_table(rows):
    """``BurstTable`` of ``(burst_id, source_mac, ie_features,
    channel_vector, truth_device[, ie_stable])`` tuples in any id order."""
    rows = sorted((BurstRow(*row) for row in rows), key=lambda row: row.burst_id)
    lengths = [row.length for row in rows]
    return BurstTable(
        ids=[row.burst_id for row in rows],
        source_macs=[row.source_mac for row in rows],
        truth_devices=[row.truth_device for row in rows],
        ie_features=[row.ie_features for row in rows],
        channels=[c for row in rows for c in row.channel_vector],
        offsets=[0, *accumulate(lengths)],
        ie_stable=[row.ie_stable for row in rows],
    )


def table_rows(table):
    """``BurstRow``s of a ``BurstTable``, in its row order."""
    bounds = table.offsets.tolist()
    return [
        BurstRow(burst_id, mac, tuple(ie), tuple(table.channels[lo:hi].tolist()), truth, stable)
        for burst_id, mac, ie, truth, stable, lo, hi in zip(
            table.ids.tolist(), table.source_macs, table.ie_features.tolist(),
            table.truth_devices, table.ie_stable.tolist(), bounds, bounds[1:],
        )
    ]


def reference_parse_ies(region):
    """(id, body) pairs of the whole elements of an IE region, and 1 when
    an element overruns the region (the walk stops there), else 0."""
    elements = []
    i = 0
    while i < len(region):
        if i + 2 > len(region) or i + 2 + region[i + 1] > len(region):
            return elements, 1
        length = region[i + 1]
        elements.append((region[i], bytes(region[i + 2 : i + 2 + length])))
        i += 2 + length
    return elements, 0


def reference_ie_features(elements):
    """Byte sums of the first HT and first Extended Capabilities element
    (0 when absent) and of every Vendor-Specific element."""
    ht = [body for ie_id, body in elements if ie_id == IE_HT]
    ext = [body for ie_id, body in elements if ie_id == IE_EXTENDED]
    vendor = [body for ie_id, body in elements if ie_id == IE_VENDOR]
    return (
        sum(ht[0]) if ht else 0,
        sum(ext[0]) if ext else 0,
        sum(sum(body) for body in vendor),
    )


def reference_ds_channel(elements):
    """First byte of the first DS Parameter Set with a body, else None."""
    for ie_id, body in elements:
        if ie_id == IE_DS_PARAMETER_SET and len(body) >= 1:
            return body[0]
    return None


def decorated_merge(streams):
    """(frame, tag) pairs of (frames, tag) streams, ordered by sorting
    explicit (timestamp, channel, input position) keys."""
    decorated = []
    position = 0
    for frames, tag in streams:
        for frame in frames:
            decorated.append((frame.timestamp, frame.capture_channel, position, frame, tag))
            position += 1
    decorated.sort(key=lambda item: item[:3])
    return [(frame, tag) for _, _, _, frame, tag in decorated]


def frame_table(frames):
    """FrameTable of a ``Frame`` list, row i from frame i."""
    return FrameTable(
        [f.timestamp for f in frames],
        [f.source_mac for f in frames],
        [f.capture_channel for f in frames],
        [f.sequence_number for f in frames],
        [f.ies for f in frames],
    )


def table_frames(table):
    """One ``Frame`` per FrameTable row, each row checked to lie in its
    columns' ranges: a 6-byte MAC, a channel in 1..13 and a sequence
    number in 0..4095."""
    columns = (
        table.timestamps.tolist(),
        table.source_macs.tolist(),
        table.capture_channels.tolist(),
        table.sequence_numbers.tolist(),
        table.ies.tolist(),
    )
    frames = [Frame(*row) for row in zip(*columns, strict=True)]
    for frame in frames:
        assert len(frame.source_mac) == 6, frame
        assert 1 <= frame.capture_channel <= 13, frame
        assert 0 <= frame.sequence_number <= 4095, frame
    return frames


def reference_group_bursts(frames, gap_seconds=2.0, truths=None):
    """Bursts of a time-ordered ``Frame`` list, cut by one
    pass over the frames with a per-MAC open burst and last-seen time."""
    if gap_seconds <= 0:
        raise ValueError("gap_seconds must be positive")
    if truths is not None and len(truths) != len(frames):
        raise ValueError("truths must parallel frames")

    groups: list[list[int]] = []
    open_group: dict[bytes, int] = {}
    last_seen: dict[bytes, float] = {}
    # one walk per distinct IE region
    walked: dict[bytes, tuple] = {}
    previous_ts = None
    for idx, frame in enumerate(frames):
        if previous_ts is not None and frame.timestamp < previous_ts:
            raise ValueError("frames must be sorted by timestamp")
        previous_ts = frame.timestamp
        if frame.ies not in walked:
            walked[frame.ies] = ie_fields(frame.ies)
        mac = frame.source_mac
        if mac in open_group and frame.timestamp - last_seen[mac] <= gap_seconds:
            groups[open_group[mac]].append(idx)
        else:
            open_group[mac] = len(groups)
            groups.append([idx])
        last_seen[mac] = frame.timestamp

    bursts = []
    for burst_id, indices in enumerate(groups):
        fields = [walked[frames[i].ies] for i in indices]
        features = fields[0][0]
        bursts.append(
            BurstRow(
                burst_id=burst_id,
                source_mac=frames[indices[0]].source_mac,
                ie_features=features,
                channel_vector=tuple(
                    channel or frames[i].capture_channel
                    for (_, channel, _), i in zip(fields, indices)
                ),
                truth_device=truths[indices[0]] if truths is not None else None,
                ie_stable=all(f == features for f, _, _ in fields),
            )
        )
    return bursts


def _refuse_nul_truths(rows):
    for row in rows:
        if "\x00" in (row.truth_device or ""):
            raise ValueError(f"truth device {row.truth_device!r} holds a NUL character")


def _reference_write_table(path, fields, rows, header_comment):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        if header_comment:
            fh.write(f"# {header_comment}\n")
        writer = csv.writer(fh)
        writer.writerow(fields)
        writer.writerows(rows)


def reference_write_feature_file(rows, path, header_comment=None):
    """``write_feature_file`` of ``BurstRow``s in id order as a row loop:
    one ``csv.writer`` row per burst. A truth name holding NUL is
    refused before the file is opened."""
    _refuse_nul_truths(rows)

    def number(x):
        return str(int(x)) if float(x).is_integer() else repr(float(x))

    _reference_write_table(
        path,
        FEATURE_FIELDS,
        (
            [
                row.burst_id, row.source_mac.hex(":"), row.truth_device or "", row.length,
                *map(number, row.ie_features), ";".join(map(str, row.channel_vector)),
            ]
            for row in rows
        ),
        header_comment,
    )


def reference_write_labeling_file(rows, coarse, final, path, header_comment=None):
    """``write_labeling_file`` of ``BurstRow``s in id order as a row
    loop, refusing a truth name that holds NUL as the feature file's."""
    _refuse_nul_truths(rows)
    _reference_write_table(
        path,
        LABELING_FIELDS,
        (
            [row.burst_id, row.source_mac.hex(":"), row.truth_device or "", c, f]
            for row, c, f in zip(rows, coarse, final, strict=True)
        ),
        header_comment,
    )


def reference_read_feature_file(path):
    """``BurstRow``s of a feature file in file order: the lines before
    the header that are blank or start with ``#`` dropped, then every
    csv record from the header on, numbered by the line it starts on,
    with csv's field limit lifted for the call; blank records are
    dropped and every other row is checked as the library's reader
    checks it."""
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            lines = fh.readlines()
    except UnicodeDecodeError as exc:
        byte = exc.object[exc.start]
        raise ValueError(f"{path}: not UTF-8 text (cannot decode byte 0x{byte:02x}: {exc.reason})") from None
    start = next((i for i, line in enumerate(lines) if line.strip() and not line.startswith("#")), None)
    if start is None:
        raise ValueError(f"{path}: no header row found")
    limit = csv.field_size_limit(1 << 30)
    try:
        reader = csv.reader(lines[start:])
        numbered = []
        ends = start  # lines up to the end of the previous record
        for record in reader:
            numbered.append((ends + 1, record))
            ends = start + reader.line_num
    finally:
        csv.field_size_limit(limit)
    return _reference_feature_rows(path, numbered)


def _reference_feature_rows(path, numbered):
    header_line, header = numbered[0]
    if tuple(header) != FEATURE_FIELDS:
        raise ValueError(f"{path}:{header_line}: unexpected header {header}")
    rows = []
    first_line = {}
    for lineno, row in numbered[1:]:
        if row == [] or (len(row) == 1 and not row[0].strip()):
            continue
        try:
            if len(row) != len(FEATURE_FIELDS):
                raise ValueError(f"expected {len(FEATURE_FIELDS)} fields, got {len(row)}")
            channel_vector = tuple(int(c) for c in row[7].split(";") if c != "")
            if channel_vector and (min(channel_vector) < 0 or not 0 < max(channel_vector) <= 255):
                raise ValueError(
                    f"channel_vector needs entries in 0..255 and a positive one, got {row[7]!r}"
                )
            ie_features = (float(row[4]), float(row[5]), float(row[6]))
            if not all(math.isfinite(x) for x in ie_features):
                raise ValueError(f"IE features must be finite, got {ie_features}")
            burst = BurstRow(int(row[0]), mac_from_str(row[1]), ie_features, channel_vector, row[2] or None)
            if not channel_vector:
                raise ValueError("a burst holds at least one frame")
            if burst.length != int(row[3]):
                raise ValueError("L column disagrees with channel_vector")
            if burst.burst_id in first_line:
                raise ValueError(
                    f"burst_id {burst.burst_id} repeats line {first_line[burst.burst_id]}"
                )
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from None
        first_line[burst.burst_id] = lineno
        rows.append(burst)
    return rows


def parse_radiotap_fields(buf):
    """(header length, 2.4 GHz channel or None, flags byte or None) of
    the Radiotap header that opens ``buf``: its layout, then the read of
    the flags byte and channel frequency at the positions it gives."""
    header_len, flags_pos, channel_pos = _radiotap_layout(buf, 0, len(buf))
    flags = None if flags_pos is None else buf[flags_pos]
    if channel_pos is None:
        return header_len, None, flags
    frequency = struct.unpack_from("<H", buf, channel_pos)[0]
    return header_len, CHANNEL_OF_FREQUENCY.get(frequency), flags


def reference_read_capture(data, meta, diagnostics=None):
    """``read_capture`` as a per-record loop: each record and its body
    are copied, every Radiotap header is decoded by
    ``parse_radiotap_fields``, and every IE region is walked."""
    diag = diagnostics if diagnostics is not None else ParseDiagnostics()
    order, nanos, network = _unpack_global_header(data)
    frames = []
    records_before = diag.records_total
    offset = 24
    while offset < len(data):
        if offset + 16 > len(data):
            diag.truncated_tail += 1
            break
        ts_sec, ts_frac, incl_len, _ = struct.unpack_from(order + "IIII", data, offset)
        offset += 16
        if incl_len > len(data) - offset:
            diag.truncated_tail += 1
            break
        record = data[offset : offset + incl_len]
        offset += incl_len
        diag.records_total += 1
        usec = ts_frac // 1000 if nanos else ts_frac
        timestamp = (ts_sec * 1_000_000 + usec) / 1e6
        channel = None
        body = record
        if network == LINKTYPE_RADIOTAP:
            try:
                header_len, channel, flags = parse_radiotap_fields(record)
            except Error:
                diag.skipped_bad_radiotap += 1
                continue
            if flags is not None and flags & RT_FLAG_BAD_FCS:
                diag.skipped_fcs_bad += 1
                continue
            body = record[header_len:]
            if flags is not None and flags & RT_FLAG_HAS_FCS and len(body) >= 4:
                body = body[:-4]
        if len(body) == 0:
            diag.skipped_truncated += 1
            continue
        if body[0] != FC_PROBE_REQUEST:
            diag.skipped_other += 1
            continue
        if len(body) < 24:
            diag.skipped_truncated += 1
            continue
        elements, overrun = reference_parse_ies(body[24:])
        diag.ie_overruns += overrun
        if channel is None:
            channel = meta.declared_channel
        if channel is None:
            raise ChannelResolutionError(f"frame in {meta.path} has no channel")
        if not 1 <= channel <= 13:
            raise ValueError(f"capture_channel out of range: {channel}")
        ies = b"".join(bytes([ie_id, len(element)]) + element for ie_id, element in elements)
        seq = struct.unpack_from("<H", body, 22)[0] >> 4
        frames.append(Frame(timestamp, bytes(body[10:16]), channel, seq, ies))
        diag.probe_requests += 1
    if diag.records_total == records_before:
        diag.empty_files.append(meta.path)
    return frames


def reference_dbscan(points, eps, min_pts):
    """Brute-force neighborhood scan + BFS expansion, pure Python."""
    points = [tuple(p) for p in points]
    n = len(points)
    neighbors = [
        [j for j in range(n) if math.dist(points[i], points[j]) <= eps]
        for i in range(n)
    ]
    core = [len(nb) >= min_pts for nb in neighbors]
    labels = [NOISE] * n
    cluster = 0
    for i in range(n):
        if labels[i] != NOISE or not core[i]:
            continue
        labels[i] = cluster
        queue = deque([i])
        while queue:
            q = queue.popleft()
            if not core[q]:
                continue
            for j in neighbors[q]:
                if labels[j] == NOISE:
                    labels[j] = cluster
                    queue.append(j)
        cluster += 1
    return labels


def all_rows_dbscan(points, eps, min_pts):
    """DBSCAN labels from an n x n neighbour matrix over every row, with no
    collapsing of repeated rows: the same column-order squared sums, row
    blocks and masked expansion as ``dbscan_labels``."""
    data = np.asarray(points, dtype=float)
    n = data.shape[0]
    within = np.empty((n, n), dtype=bool)
    for start in range(0, n, DBSCAN_BLOCK_ROWS):
        block = data[start : start + DBSCAN_BLOCK_ROWS]
        squared = np.zeros((block.shape[0], n))
        for block_column, column in zip(block.T, data.T):
            squared += (block_column[:, None] - column[None, :]) ** 2
        within[start : start + block.shape[0]] = squared <= eps * eps
    core = within.sum(axis=1) >= min_pts

    labels = np.full(n, NOISE, dtype=int)
    cluster = 0
    for seed in range(n):
        if labels[seed] != NOISE or not core[seed]:
            continue
        labels[seed] = cluster
        frontier = deque([seed])
        while frontier:
            point = frontier.popleft()
            if core[point]:
                reached = np.flatnonzero(within[point] & (labels == NOISE))
                labels[reached] = cluster
                frontier.extend(reached)
        cluster += 1
    return labels


def reference_distinct_rows(values):
    """(first index of each distinct row, its multiplicity, each row's
    distinct index) as lists, from a dict over each row's bytes that
    numbers the rows in the order they first appear."""
    ids, first, counts, index = {}, [], [], []
    for i, row in enumerate(np.asarray(values)):
        key = np.asarray(row).tobytes()
        if key not in ids:
            ids[key] = len(first)
            first.append(i)
            counts.append(0)
        counts[ids[key]] += 1
        index.append(ids[key])
    return first, counts, index


def reference_refine_labels(rows, config, seed_key):
    """Fine-stage labels trying every k up to ``min(k_max, n)``, with no
    cap at the pool's distinct rows."""
    threshold = dynamic_threshold(average_pairwise_similarity(rows))
    labelings = []
    distortions = []
    for k in range(1, min(config.k_max, len(rows)) + 1):
        rng = substream(config.seed, STREAM_KMEANS, *seed_key, k)
        labels, _, distortion = spherical_kmeans(rows, k, rng)
        labelings.append(labels)
        distortions.append(distortion)
    return labelings[elbow_select_k(distortions, threshold) - 1]


def plain_seed_centers(unit, k, rng):
    """Distance-weighted (D²) seeding over cosine distance: the picked
    row indices, every distance computed afresh."""
    n = unit.shape[0]
    chosen = [int(rng.integers(n))]
    nearest = np.maximum(1.0 - unit @ unit[chosen[0]], 0.0)
    for _ in range(1, k):
        weights = nearest * nearest
        total = float(weights.sum())
        if total <= 1e-12:
            pick = int(rng.integers(n))
        else:
            pick = int(np.searchsorted(np.cumsum(weights), rng.random() * total, side="right"))
            pick = min(pick, n - 1)
        chosen.append(pick)
        nearest = np.minimum(nearest, np.maximum(1.0 - unit @ unit[pick], 0.0))
    return chosen


def plain_spherical_kmeans(rows, k, rng, history):
    """``spherical_kmeans`` with every restart seeded by
    ``plain_seed_centers`` and run through Lloyd: the lowest distortion
    wins, the earlier restart on ties, and ``history`` gets each
    restart's trace."""
    unit = _unit_rows(np.asarray(rows, dtype=float))
    best = None
    for _ in range(RESTARTS):
        result, trace = _lloyd(unit, k, unit[plain_seed_centers(unit, k, rng)])
        history.append(trace)
        if best is None or result[2] < best[2]:
            best = result
    return best


def unguarded_fix_empty_clusters(sims, labels, k):
    """Refill each empty cluster, in order, with the worst-fitted row not
    yet moved, even when that row is its cluster's only member (which
    can leave that cluster empty). Changes ``labels`` in place; returns
    whether it took a cluster's only member."""
    took_sole = False
    taken = set()
    for j in range(k):
        if np.any(labels == j):
            continue
        own = sims[np.arange(len(labels)), labels].copy()
        if taken:
            own[list(taken)] = np.inf
        worst = int(own.argmin())
        took_sole |= int(np.count_nonzero(labels == labels[worst])) == 1
        labels[worst] = j
        taken.add(worst)
    return took_sole


def reference_pools(bursts, eval_cfg):
    """(p, subset index, the draw's ``BurstRow``s in ascending id order)
    for every protocol draw of ``(burst_id, source_mac, ie_features,
    channel_vector, truth_device)`` tuples, each list built afresh."""
    by_device = {}
    for burst in (BurstRow(*row) for row in bursts):
        if burst.truth_device is None:
            raise ValueError(f"burst {burst.burst_id} has no ground-truth label")
        by_device.setdefault(burst.truth_device, []).append(burst)
    if len(by_device) < 2:
        raise ValueError(
            f"the subset protocol needs at least 2 labelled devices, found {len(by_device)}"
        )
    return [
        (p, s, sorted((b for name in subset for b in by_device[name]), key=lambda b: b.burst_id))
        for p, s, subset in draw_subsets(list(by_device), eval_cfg)
    ]


def reference_score(p, s, pool, labels):
    """``_score`` of one pool's labels against its own truth encoding."""
    return _score(p, s, _encode([b.truth_device for b in pool]), labels)


def padded(vectors):
    """Channel vectors as rows, zero-padded to the longest, one row at a time."""
    matrix = np.zeros((len(vectors), max(len(v) for v in vectors)))
    for row, vector in zip(matrix, vectors):
        row[: len(vector)] = vector
    return matrix


def reference_run_protocol(bursts, eval_cfg, dbscan_cfg, kmeans_cfg):
    """``run_protocol`` clustering each draw's bursts on their own: the
    IE rows normalized among the draw's bursts, the channel vectors
    padded to the draw's widest burst, and a fresh fine-stage cache."""
    reports = {method: [] for method in METHODS}
    for p, s, pool in reference_pools(bursts, eval_cfg):
        coarse = ie_only_cluster([b.ie_features for b in pool], dbscan_cfg)
        run_cfg = replace(kmeans_cfg, seed=child_seed(eval_cfg.seed, STREAM_KMEANS, p, s))
        final = two_stage_cluster(padded([b.channel_vector for b in pool]), coarse, run_cfg)
        reports[METHOD_TWO_STAGE].append(reference_score(p, s, pool, final))
        reports[METHOD_IE_ONLY].append(reference_score(p, s, pool, coarse))
    return reports


def per_point_tune(bursts, eps_grid, minpts_grid, eval_cfg):
    """``tune_dbscan`` running ``ie_only_cluster`` on every pool at every
    grid point, in grid order."""
    if len(eps_grid) == 0 or len(minpts_grid) == 0:
        raise ValueError("hyperparameter grids must be non-empty")
    pools = reference_pools(bursts, eval_cfg)

    rows = []
    for eps in eps_grid:
        for min_pts in minpts_grid:
            cfg = DbscanConfig(eps=eps, min_pts=min_pts)
            reports = [
                reference_score(p, s, pool, ie_only_cluster([b.ie_features for b in pool], cfg))
                for p, s, pool in pools
            ]
            rows.append(
                TuneRow(
                    eps=float(eps),
                    min_pts=int(min_pts),
                    mean_v=float(np.mean([r.v_measure for r in reports])),
                    mean_abs_delta=float(np.mean([abs(r.delta) for r in reports])),
                )
            )
    rows.sort(key=lambda r: (-r.mean_v, r.mean_abs_delta, r.eps, r.min_pts))
    return rows


def canonical_partition(labels):
    """Frozen partition of indices by label, noise kept apart."""
    groups = {}
    for idx, label in enumerate(labels):
        groups.setdefault(label, set()).add(idx)
    noise = frozenset(groups.pop(NOISE, set()))
    return frozenset(frozenset(g) for g in groups.values()), noise


def oracle_hcv(truth, pred):
    """Entropy-based scores from the contingency table, plain Python."""
    n = len(truth)
    joint = Counter(zip(truth, pred))
    t_counts = Counter(truth)
    p_counts = Counter(pred)

    def entropy(counts):
        return -sum(c / n * math.log(c / n) for c in counts.values())

    h_truth = entropy(t_counts)
    h_pred = entropy(p_counts)
    h_t_given_p = -sum(c / n * math.log(c / p_counts[p]) for (t, p), c in joint.items())
    h_p_given_t = -sum(c / n * math.log(c / t_counts[t]) for (t, p), c in joint.items())
    h = 1.0 if h_truth == 0 else 1.0 - h_t_given_p / h_truth
    c = 1.0 if h_pred == 0 else 1.0 - h_p_given_t / h_pred
    v = 0.0 if h + c == 0 else 2 * h * c / (h + c)
    return h, c, v
