"""Fused serving: coalesced repeats run as one group and stay bit-identical.

The service runs each coalesced executor batch through
:func:`~repro.runner.units.execute_unit_group`, so repeats of one
(phone, scene) pair in a batch fuse into one vectorized pass. That is
throughput machinery only: a drained service must agree with the serial
runner (one ``execute_unit`` per request) — and with a service whose
batches hold one request each — on every deterministic response field,
under coalescing, repeats, worker pools, and arrival reordering.
"""

import asyncio

from repro.loadgen.client import drive_inproc
from repro.loadgen.generator import build_schedule
from repro.serve.service import CaptureRequest, IngestService

from .conftest import make_config


def drive(config, schedule):
    async def scenario():
        service = IngestService(config)
        await service.start()
        report = await drive_inproc(service, schedule, paced=False)
        await service.drain()
        return service, report

    return asyncio.run(scenario())


def fields(report):
    return {
        rid: response.deterministic_fields()
        for rid, response in report["responses"].items()
    }


# repeats=3 gives every (device, scene) triple captures to fuse.
SCHEDULE = build_schedule(count=24, rate=1000.0, devices=4, scenes=2, seed=13, repeats=3)


class TestBatchedServing:
    def test_drained_batched_service_matches_serial_reference(self):
        config = make_config(batch_max=16, queue_capacity=64)
        service, report = drive(config, SCHEDULE)
        assert all(r.status == "ok" for r in report["responses"].values())
        requests = [
            CaptureRequest(p.request_id, p.device, p.scene, p.repeat)
            for p in SCHEDULE
        ]
        serial = {
            r.request_id: r.deterministic_fields()
            for r in service.serial_reference(requests)
        }
        assert fields(report) == serial

    def test_batched_matches_unbatched_service(self):
        """Batches of one request (groups of one) vs coalesced batches."""
        _, unbatched = drive(make_config(batch_max=1), SCHEDULE)
        _, batched = drive(make_config(batch_max=16, queue_capacity=64), SCHEDULE)
        assert fields(batched) == fields(unbatched)

    def test_batched_with_worker_pool(self):
        _, serial = drive(make_config(workers=0), SCHEDULE)
        _, pooled = drive(make_config(workers=2), SCHEDULE)
        assert fields(serial) == fields(pooled)

    def test_batched_request_order(self):
        reordered = list(reversed(SCHEDULE))
        _, forward = drive(make_config(), SCHEDULE)
        _, backward = drive(make_config(), reordered)
        assert fields(forward) == fields(backward)
