"""Synthetic temporal-network generators standing in for the paper's datasets.

The paper evaluates on four public datasets (Table I): DBLP (co-authorship),
Digg (friendship), Tmall (user-item purchases) and Yelp (user-business
reviews).  The raw dumps are not available offline, so each generator below
reproduces the *structural and temporal properties the algorithms interact
with* (see DESIGN.md):

- skewed (preferential-attachment) degree distributions;
- temporal locality — recently active nodes form the next edges, so
  historical neighborhoods predict future links (the signal EHNA exploits);
- repeat interactions (parallel temporal edges);
- bipartiteness for Tmall/Yelp, which motivates the paper's *bidirectional*
  negative sampling (Eq. 7);
- a purchase burst for Tmall ("Double 11" is a single shopping day).

Sizes default to laptop scale and every generator takes explicit counts, so
harnesses can scale experiments up or down.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from repro.graph.temporal_graph import TemporalGraph
from repro.storage.base import validate_event_columns
from repro.storage.memmap import MemmapStorage, MemmapStorageWriter
from repro.utils.rng import ensure_rng
from repro.utils.validation import check_fraction, check_positive


def _compact(src, dst, time, weight=None) -> TemporalGraph:
    """Relabel node ids densely and build the graph."""
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    used, inverse = np.unique(np.concatenate([src, dst]), return_inverse=True)
    relabeled = inverse.reshape(2, -1)
    return TemporalGraph.from_edges(
        relabeled[0],
        relabeled[1],
        np.asarray(time, dtype=np.float64),
        weight,
        num_nodes=used.size,
    )


def community_labels(
    graph: TemporalGraph,
    num_communities: int = 4,
    seed=None,
) -> np.ndarray:
    """Community labels for every node of ``graph`` (seeded graph Voronoi).

    The generators above encode community structure implicitly — triadic
    closure, friend-of-a-recent-friend targeting, co-purchase neighborhoods —
    so the label side of the node-classification task is recovered from the
    produced structure rather than drawn alongside it (which would perturb
    the RNG stream and change the graphs behind the published tables).

    The partition grows balanced regions: the ``num_communities``
    highest-degree nodes anchor one label each (greedily skipping neighbors
    of already-chosen anchors so the seeds spread out), then the smallest
    community repeatedly claims one more unlabeled node adjacent to its
    current members — so a single hub cannot flood the whole graph, and
    sizes stay as even as connectivity allows.  The construction is fully
    deterministic given the graph; ``seed`` only randomizes the labels of
    nodes in components containing no anchor.  Returns an int64 array of
    length ``num_nodes`` with values in ``[0, num_communities)``.
    """
    check_positive("num_communities", num_communities)
    rng = ensure_rng(seed)
    n = graph.num_nodes
    k = min(int(num_communities), n)
    dindptr, dnbr, _ = graph.distinct_csr()
    degree = np.diff(dindptr)

    labels = np.full(n, -1, dtype=np.int64)
    anchors: list[int] = []
    by_degree = np.argsort(-degree, kind="stable")
    for v in by_degree:  # prefer mutually non-adjacent anchors
        if len(anchors) == k:
            break
        nbrs = dnbr[dindptr[v] : dindptr[v + 1]]
        if nbrs.size and np.any(labels[nbrs] >= 0):
            continue
        labels[v] = len(anchors)
        anchors.append(int(v))
    for v in by_degree:  # dense graphs: fill from the top regardless
        if len(anchors) == k:
            break
        if labels[v] < 0:
            labels[v] = len(anchors)
            anchors.append(int(v))

    queues: list[deque[int]] = [deque([a]) for a in anchors]
    sizes = [1] * len(anchors)
    scan = dindptr[:-1].copy()  # next incidence slot to inspect, per node
    while True:
        live = [c for c in range(len(anchors)) if queues[c]]
        if not live:
            break
        c = min(live, key=lambda i: (sizes[i], i))
        grown = False
        while queues[c] and not grown:
            v = queues[c][0]
            while scan[v] < dindptr[v + 1]:
                u = int(dnbr[scan[v]])
                scan[v] += 1
                if labels[u] < 0:
                    labels[u] = c
                    sizes[c] += 1
                    queues[c].append(u)
                    grown = True
                    break
            if not grown:
                queues[c].popleft()  # v has no unlabeled neighbors left

    orphans = labels < 0
    if np.any(orphans):
        labels[orphans] = rng.integers(k, size=int(orphans.sum()))
    return labels


def generate_scaled_events(
    store_dir,
    num_events: int = 1_000_000,
    num_nodes: int = 100_000,
    chunk_events: int = 250_000,
    popularity_exponent: float = 0.8,
    mean_interarrival: float = 1.0,
    seed=None,
    meta: dict | None = None,
) -> MemmapStorage:
    """Emit a scale-test event log straight into an on-disk columnar store.

    The laptop-scale generators above model the *signal* the algorithms
    exploit and pay a Python loop per event for it — unusable at millions of
    events.  This generator models only the *shape* that matters for scale
    testing (skewed popularity, strictly increasing timestamps, repeat
    interactions) and is fully vectorized: events are drawn and written in
    ``chunk_events`` blocks through a
    :class:`~repro.storage.MemmapStorageWriter`, so peak memory is one chunk
    of columns regardless of ``num_events`` and no Python object is ever
    materialized per event.

    Endpoints follow a Zipf-like popularity ``(1+rank)^-popularity_exponent``
    (hubs emerge, parallel edges recur); inter-arrival times are exponential
    with ``mean_interarrival``, so chunks arrive globally time-sorted and
    finalize never re-sorts.  Returns the finalized
    :class:`~repro.storage.MemmapStorage`; build the graph with
    ``TemporalGraph.from_storage``.
    """
    check_positive("num_events", num_events)
    check_positive("num_nodes", num_nodes - 1)  # need >= 2 nodes for edges
    check_positive("chunk_events", chunk_events)
    check_positive("mean_interarrival", mean_interarrival)
    rng = ensure_rng(seed)

    popularity = (1.0 + np.arange(num_nodes)) ** (-float(popularity_exponent))
    cdf = np.cumsum(popularity)
    cdf /= cdf[-1]

    writer = MemmapStorageWriter(
        store_dir,
        num_nodes=int(num_nodes),
        meta={
            "generator": "scaled_events",
            "num_events": int(num_events),
            "num_nodes": int(num_nodes),
            "popularity_exponent": float(popularity_exponent),
            **(meta or {}),
        },
    )
    t_offset = 0.0
    remaining = int(num_events)
    while remaining > 0:
        block = min(int(chunk_events), remaining)
        src = np.searchsorted(cdf, rng.random(block)).astype(np.int64)
        dst = np.searchsorted(cdf, rng.random(block)).astype(np.int64)
        loops = src == dst
        dst[loops] = (dst[loops] + 1) % num_nodes  # src == dst+1 is impossible here
        time = t_offset + np.cumsum(rng.exponential(mean_interarrival, size=block))
        t_offset = float(time[-1])
        writer.append(validate_event_columns(src, dst, time))
        remaining -= block
    return writer.finalize()


def temporal_preferential_attachment(
    num_nodes: int = 200,
    edges_per_node: int = 4,
    recency_bias: float = 2.0,
    seed=None,
) -> TemporalGraph:
    """Growing network where new nodes attach to high-degree, recent nodes.

    Node ``v`` arrives at time ``v`` and draws ``edges_per_node`` targets with
    probability proportional to ``(degree + 1) * exp(recency_bias * a)`` where
    ``a`` is the target's last-activity time rescaled to [0, 1].  With
    ``recency_bias=0`` this degenerates to classic preferential attachment.
    """
    check_positive("num_nodes", num_nodes - 1)
    check_positive("edges_per_node", edges_per_node)
    rng = ensure_rng(seed)
    degree = np.zeros(num_nodes, dtype=np.float64)
    last_active = np.zeros(num_nodes, dtype=np.float64)
    src, dst, time = [], [], []

    for v in range(1, num_nodes):
        pool = v  # nodes 0..v-1 already exist
        scale = max(v - 1, 1)
        w = (degree[:pool] + 1.0) * np.exp(
            recency_bias * last_active[:pool] / scale
        )
        k = min(edges_per_node, pool)
        targets = rng.choice(pool, size=k, replace=False, p=w / w.sum())
        for i, u in enumerate(targets):
            t = v + i / (k + 1.0)
            src.append(v)
            dst.append(int(u))
            time.append(t)
            degree[v] += 1
            degree[u] += 1
            last_active[v] = t
            last_active[u] = t
    return _compact(src, dst, time)


def temporal_sbm(
    num_nodes: int = 200,
    num_communities: int = 4,
    num_edges: int = 1500,
    p_in: float = 0.85,
    seed=None,
) -> TemporalGraph:
    """Stochastic-block-model-like temporal graph with drifting communities.

    Each edge event picks a source uniformly, then a target inside the
    source's community with probability ``p_in`` (else any community).
    Timestamps are uniform, so community structure is stable in time — a
    useful control where temporal methods hold no advantage.
    """
    check_positive("num_nodes", num_nodes)
    check_positive("num_edges", num_edges)
    check_fraction("p_in", p_in, inclusive=False)
    rng = ensure_rng(seed)
    community = rng.integers(num_communities, size=num_nodes)
    members = [np.flatnonzero(community == c) for c in range(num_communities)]
    src, dst, time = [], [], []
    times = np.sort(rng.random(num_edges))
    for t in times:
        u = int(rng.integers(num_nodes))
        if rng.random() < p_in and members[community[u]].size > 1:
            v = int(rng.choice(members[community[u]]))
        else:
            v = int(rng.integers(num_nodes))
        if u == v:
            v = (v + 1) % num_nodes
        src.append(u)
        dst.append(v)
        time.append(float(t))
    return _compact(src, dst, time)


def dblp_like(
    num_authors: int = 300,
    num_papers: int = 600,
    year_range: tuple[int, int] = (1955, 2017),
    mean_team_size: float = 2.6,
    new_author_rate: float = 0.35,
    closure_prob: float = 0.5,
    seed=None,
) -> TemporalGraph:
    """Growing co-authorship network (DBLP stand-in).

    Papers are generated in chronological order with publication volume
    growing over time (research output accelerates).  Each paper's team mixes
    veterans — chosen by collaboration count — new authors, and *triadic
    closure* picks (collaborators of collaborators), which is exactly the
    mechanism the paper's Figure 2 narrative describes.  Co-authors receive a
    clique of edges stamped with the paper year, so repeat collaborations
    appear as parallel edges.
    """
    check_positive("num_authors", num_authors)
    check_positive("num_papers", num_papers)
    rng = ensure_rng(seed)
    y0, y1 = year_range
    if y1 <= y0:
        raise ValueError("year_range must be increasing")

    # Accelerating publication volume: year of paper i ~ y0 + span * sqrt(u).
    years = y0 + (y1 - y0) * np.sqrt(np.sort(rng.random(num_papers)))

    collab_count = np.zeros(num_authors, dtype=np.float64)
    collaborators: list[set[int]] = [set() for _ in range(num_authors)]
    active: list[int] = [0, 1]  # founding authors
    next_author = 2
    src, dst, time = [], [], []

    for year in years:
        team_size = max(2, 1 + rng.poisson(mean_team_size - 1))
        team: list[int] = []
        # Anchor author: veteran weighted by collaboration record.
        weights = collab_count[active] + 1.0
        anchor = int(rng.choice(active, p=weights / weights.sum()))
        team.append(anchor)
        while len(team) < team_size:
            if next_author < num_authors and rng.random() < new_author_rate:
                team.append(next_author)
                active.append(next_author)
                next_author += 1
                continue
            if rng.random() < closure_prob and collaborators[anchor]:
                # Triadic closure: collaborator-of-collaborator of the anchor.
                mid = int(rng.choice(sorted(collaborators[anchor])))
                pool = collaborators[mid] - set(team)
                if pool:
                    team.append(int(rng.choice(sorted(pool))))
                    continue
            weights = collab_count[active] + 1.0
            pick = int(rng.choice(active, p=weights / weights.sum()))
            if pick not in team:
                team.append(pick)
        # Clique among the team, jittered within the year for ordering.
        stamp = float(year) + rng.random() * 0.5
        for i in range(len(team)):
            for j in range(i + 1, len(team)):
                a, b = team[i], team[j]
                src.append(a)
                dst.append(b)
                time.append(stamp)
                collab_count[a] += 1
                collab_count[b] += 1
                collaborators[a].add(b)
                collaborators[b].add(a)
    return _compact(src, dst, time)


def digg_like(
    num_users: int = 400,
    num_edges: int = 3000,
    time_range: tuple[float, float] = (2004.0, 2009.0),
    recency_halflife: float = 0.5,
    exploration: float = 0.35,
    seed=None,
) -> TemporalGraph:
    """Social friendship network (Digg stand-in).

    Users arrive over the timeline; the *initiator* of each friendship is
    chosen with weight ``(degree + 1) * 2^(-(now - last_active)/halflife)``
    (popular and recently active users act), and the *target* is found by a
    two-step walk over the initiator's **recent** friendships — a
    friend-of-a-recent-friend, exactly the historical-neighborhood mechanism
    the paper's Figure 2 describes.  With probability ``exploration`` the
    target is instead uniform (casual befriending), keeping the long tail of
    users attached.  This makes future links genuinely predictable from
    historical neighborhoods — the signal temporal methods exploit.
    """
    check_positive("num_users", num_users)
    check_positive("num_edges", num_edges)
    check_fraction("exploration", exploration, inclusive=True)
    rng = ensure_rng(seed)
    t0, t1 = time_range
    if t1 <= t0:
        raise ValueError("time_range must be increasing")

    times = np.sort(t0 + (t1 - t0) * rng.random(num_edges))
    # User u becomes visible at arrival[u]; arrivals front-loaded.
    arrival = t0 + (t1 - t0) * np.sort(rng.random(num_users) ** 2)
    arrival[:2] = t0
    degree = np.zeros(num_users, dtype=np.float64)
    last_active = np.full(num_users, t0, dtype=np.float64)
    # Recent friends, most recent last (bounded memory per user).
    recent: list[list[int]] = [[] for _ in range(num_users)]
    src, dst, time = [], [], []

    def remember(u: int, v: int) -> None:
        recent[u].append(v)
        if len(recent[u]) > 10:
            recent[u].pop(0)

    for t in times:
        pool = int(np.searchsorted(arrival, t, side="right"))
        pool = max(pool, 2)
        w = (degree[:pool] + 1.0) * np.exp2(
            -(t - last_active[:pool]) / recency_halflife
        )
        u = int(rng.choice(pool, p=w / w.sum()))

        v = -1
        if rng.random() >= exploration and recent[u]:
            # Friend-of-a-recent-friend, biased to the most recent contacts.
            mid = recent[u][-1 - int(rng.integers(min(3, len(recent[u]))))]
            if recent[mid]:
                v = recent[mid][-1 - int(rng.integers(min(3, len(recent[mid]))))]
        if v < 0 or v == u or v >= pool:
            v = int(rng.integers(pool))
        if u == v:
            v = (v + 1) % pool
        src.append(u)
        dst.append(v)
        time.append(float(t))
        degree[u] += 1
        degree[v] += 1
        last_active[u] = t
        last_active[v] = t
        remember(u, v)
        remember(v, u)
    return _compact(src, dst, time)


def tmall_like(
    num_users: int = 300,
    num_items: int = 120,
    num_purchases: int = 3000,
    burst_fraction: float = 0.4,
    zipf_exponent: float = 1.1,
    seed=None,
) -> TemporalGraph:
    """Bipartite user-item purchase network (Tmall "Double 11" stand-in).

    Users occupy ids ``0..num_users-1`` and items the remaining ids.  Item
    popularity is Zipf-distributed; ``burst_fraction`` of all purchases land
    on the final "shopping-festival" day, mirroring the Double-11 sales data
    the paper uses.  Repeat purchases produce parallel edges.
    """
    check_positive("num_users", num_users)
    check_positive("num_items", num_items)
    check_positive("num_purchases", num_purchases)
    check_fraction("burst_fraction", burst_fraction, inclusive=True)
    rng = ensure_rng(seed)

    item_pop = (1.0 + np.arange(num_items)) ** (-zipf_exponent)
    item_pop /= item_pop.sum()
    user_act = rng.lognormal(mean=0.0, sigma=1.0, size=num_users)
    user_act /= user_act.sum()

    n_burst = int(round(num_purchases * burst_fraction))
    n_normal = num_purchases - n_burst
    # 365-day year; the festival is the last day.
    t_normal = rng.random(n_normal) * 364.0
    t_burst = 364.0 + rng.random(n_burst)
    times = np.sort(np.concatenate([t_normal, t_burst]))

    users = rng.choice(num_users, size=num_purchases, p=user_act)
    # Items follow co-purchase neighborhoods: with probability 0.55 a user
    # buys what a *recent* buyer of their own recent item bought (the
    # collaborative signal recommender data exhibits); otherwise popularity.
    recent_user_items: list[list[int]] = [[] for _ in range(num_users)]
    recent_item_users: list[list[int]] = [[] for _ in range(num_items)]
    src, dst, time = [], [], []
    for u, t in zip(users, times):
        u = int(u)
        item = -1
        if recent_user_items[u] and rng.random() < 0.55:
            anchor = recent_user_items[u][-1]
            buyers = recent_item_users[anchor]
            if buyers:
                peer = buyers[-1 - int(rng.integers(min(3, len(buyers))))]
                if recent_user_items[peer]:
                    item = recent_user_items[peer][-1]
        if item < 0:
            item = int(rng.choice(num_items, p=item_pop))
        src.append(u)
        dst.append(num_users + item)
        time.append(float(t))
        recent_user_items[u].append(item)
        if len(recent_user_items[u]) > 8:
            recent_user_items[u].pop(0)
        recent_item_users[item].append(u)
        if len(recent_item_users[item]) > 8:
            recent_item_users[item].pop(0)
    return _compact(src, dst, time)


def yelp_like(
    num_users: int = 300,
    num_businesses: int = 150,
    num_reviews: int = 3000,
    repeat_prob: float = 0.3,
    zipf_exponent: float = 0.9,
    seed=None,
) -> TemporalGraph:
    """Bipartite user-business review network (Yelp stand-in).

    Each review either revisits a business the user already reviewed
    (``repeat_prob``) or discovers one by popularity.  Review volume grows
    over the timeline, as in the Yelp challenge data.
    """
    check_positive("num_users", num_users)
    check_positive("num_businesses", num_businesses)
    check_positive("num_reviews", num_reviews)
    check_fraction("repeat_prob", repeat_prob, inclusive=True)
    rng = ensure_rng(seed)

    pop = (1.0 + np.arange(num_businesses)) ** (-zipf_exponent)
    pop /= pop.sum()
    visited: list[list[int]] = [[] for _ in range(num_users)]
    recent_reviewers: list[list[int]] = [[] for _ in range(num_businesses)]
    # Growing volume: timestamps concentrated toward the end of the window.
    times = np.sort(rng.random(num_reviews) ** 0.5) * 3650.0  # ~10 years in days

    src, dst, time = [], [], []
    for t in times:
        u = int(rng.integers(num_users))
        b = -1
        if visited[u] and rng.random() < repeat_prob:
            b = int(rng.choice(visited[u]))
        elif visited[u] and rng.random() < 0.5:
            # Word of mouth: try a place that a recent co-reviewer (someone
            # who reviewed one of u's businesses lately) also reviewed.
            anchor = visited[u][-1]
            peers = recent_reviewers[anchor]
            if peers:
                peer = peers[-1 - int(rng.integers(min(3, len(peers))))]
                if visited[peer]:
                    b = visited[peer][-1]
        if b < 0:
            b = int(rng.choice(num_businesses, p=pop))
        if b not in visited[u]:
            visited[u].append(b)
        src.append(u)
        dst.append(num_users + b)
        time.append(float(t))
        recent_reviewers[b].append(u)
        if len(recent_reviewers[b]) > 8:
            recent_reviewers[b].pop(0)
    return _compact(src, dst, time)
