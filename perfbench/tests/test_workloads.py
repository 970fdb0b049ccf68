"""Input generation of the workloads: what the seed varies and what it keeps."""

from workloads import Serve


def coords(requests):
    return [(r.device, r.scene, r.repeat) for r in requests]


def first_visits(requests):
    """For each request, the index of the first request naming its unit."""
    first = {}
    return [first.setdefault(c, i) for i, c in enumerate(coords(requests))]


def test_serve_seed_moves_units_but_keeps_the_traffic_plan():
    paced_a, capacity_a = Serve(1).schedules(20)
    paced_b, capacity_b = Serve(2).schedules(20)
    assert [r.at_s for r in paced_a] == [r.at_s for r in paced_b]
    assert [r.device for r in paced_a] == [r.device for r in paced_b]
    assert first_visits(paced_a) == first_visits(paced_b)
    assert [r.device for r in capacity_a] == [r.device for r in capacity_b]
    assert not set(coords(paced_a)) & set(coords(paced_b))
    assert Serve(1).schedules(20) == (paced_a, capacity_a)


def test_serve_traffic_shape():
    workload = Serve(0)
    paced, capacity = workload.schedules(20)
    assert len(paced) == 100 and len(capacity) == 100  # one round of each
    history = set(coords(workload._relabel(workload._history())))
    revisits = sum(
        1 for i, c in enumerate(coords(paced)) if c in history or c in coords(paced)[:i]
    )
    assert abs(revisits / len(paced) - Serve.HIT_SHARE) < 0.1
    # Capacity requests all name new units: none is cached or coalesces.
    assert len(set(coords(capacity))) == len(capacity)
    assert not set(coords(capacity)) & (history | set(coords(paced)))
