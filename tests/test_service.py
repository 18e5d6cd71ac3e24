"""Service-level contracts: bit-identity, durability, lifecycle edges.

The core invariant (ISSUE 10): any interleaving of N concurrent
campaigns on the shared worker fleet yields each campaign's exact
standalone :class:`~repro.core.results.CampaignResult` — CSV bytes and
``wall_virtual_s`` included — because pair measurement is a pure
function of ``(blueprint, config, grid index)`` and the virtual-clock
advance is grid-index ordered.  These tests pin that invariant across
seeds and axes, plus the durability and lifecycle edges: kill/restart
resume of interleaved journaled campaigns, submit-during-drain
rejection, cooperative cancel mid-facet, and two tenants sharing one
calibration cache.
"""

import asyncio
import json

import pytest

from repro import make_machine, run_campaign
from repro.core.config import LatestConfig
from repro.core.stream import FacetPrepared, PairMeasured, PairRetried
from repro.errors import ConfigError, ServiceUnavailable
from repro.service.client import SocketClient
from repro.service.requests import CampaignRequest
from repro.service.scheduler import FairShareScheduler
from repro.service.server import ServiceServer, event_to_wire
from repro.service.service import CampaignService
from tests.conftest import fast_config
from tests.test_exec_engine import _campaign_fingerprint, _csv_bytes

#: LatestConfig overrides matching ``fast_config`` exactly — requests
#: carry them as JSON, the standalone reference builds them directly.
FAST = dict(
    record_sm_count=4,
    min_measurements=4,
    max_measurements=8,
    rse_check_every=2,
    warmup_kernels=1,
    warmup_kernel_duration_s=0.05,
    measure_kernel_duration_s=0.08,
    delay_iterations=150,
    confirm_iterations=150,
    probe_window_s=0.4,
    settle_chunk_s=0.08,
)

SM_FREQS = (705.0, 1095.0, 1410.0)


def _request(seed, tenant="default", weight=1.0, frequencies=SM_FREQS, **over):
    config = dict(FAST, frequencies=list(frequencies))
    config.update(over)
    return CampaignRequest(
        tenant=tenant, weight=weight, seed=seed, config=config
    )


def _standalone(seed, frequencies=SM_FREQS, **over):
    """The reference result a service campaign must reproduce exactly."""
    machine = make_machine("A100", seed=seed)
    config = fast_config(frequencies, **over)
    return run_campaign(machine, config, workers=1)


async def _measured_then_cancel(service, campaign_id, n_measured):
    """Cancel after ``n_measured`` fresh pairs; returns cancel()'s bool."""
    count = 0
    async for event in service.events(campaign_id):
        if isinstance(event, PairMeasured) and not event.replayed:
            count += 1
            if count >= n_measured:
                break
    return await service.cancel(campaign_id)


class TestConcurrentBitIdentity:
    def test_three_concurrent_campaigns_match_standalone(self, tmp_path):
        """N=3 interleaved campaigns == their standalone runs, CSVs too."""
        seeds = (11, 22, 33)
        refs = {}
        for seed in seeds:
            outdir = tmp_path / f"ref{seed}"
            refs[seed] = (
                _standalone(seed, output_dir=str(outdir)),
                _csv_bytes(outdir),
            )

        async def main():
            service = CampaignService(fleet_size=3, shard_pairs=2)
            await service.start()
            ids = {}
            for seed, tenant, weight in zip(
                seeds, ("alice", "bob", "carol"), (1.0, 2.0, 0.5)
            ):
                outdir = tmp_path / f"svc{seed}"
                ids[seed] = await service.submit(
                    _request(
                        seed,
                        tenant=tenant,
                        weight=weight,
                        output_dir=str(outdir),
                    )
                )
            results = dict(
                zip(
                    seeds,
                    await asyncio.gather(
                        *(service.result(ids[seed]) for seed in seeds)
                    ),
                )
            )
            await service.stop()
            return results

        results = asyncio.run(main())
        for seed in seeds:
            ref, ref_csvs = refs[seed]
            assert results[seed].wall_virtual_s == ref.wall_virtual_s
            assert _campaign_fingerprint(results[seed]) == (
                _campaign_fingerprint(ref)
            )
            svc_csvs = _csv_bytes(tmp_path / f"svc{seed}")
            assert svc_csvs == ref_csvs
            assert svc_csvs  # CSVs were actually written

    @pytest.mark.parametrize(
        "frequencies,overrides",
        [
            pytest.param(SM_FREQS, {}, id="sm_core"),
            pytest.param(
                (1215.0, 810.0, 405.0), {"axis": "memory"}, id="memory"
            ),
            pytest.param(
                (400.0, 330.0, 270.0), {"axis": "power"}, id="power"
            ),
        ],
    )
    def test_bit_identity_holds_on_every_axis(self, frequencies, overrides):
        ref = _standalone(17, frequencies=frequencies, **overrides)

        async def main():
            service = CampaignService(fleet_size=2, shard_pairs=2)
            await service.start()
            campaign_id = await service.submit(
                _request(17, frequencies=frequencies, **overrides)
            )
            result = await service.result(campaign_id)
            await service.stop()
            return result

        result = asyncio.run(main())
        assert result.wall_virtual_s == ref.wall_virtual_s
        assert _campaign_fingerprint(result) == _campaign_fingerprint(ref)

    def test_shard_size_does_not_change_results(self):
        ref = _standalone(5)

        async def run_with(shard_pairs):
            service = CampaignService(
                fleet_size=2, shard_pairs=shard_pairs
            )
            await service.start()
            campaign_id = await service.submit(_request(5))
            result = await service.result(campaign_id)
            await service.stop()
            return result

        for shard_pairs in (1, 3, 100):
            result = asyncio.run(run_with(shard_pairs))
            assert _campaign_fingerprint(result) == (
                _campaign_fingerprint(ref)
            ), f"shard_pairs={shard_pairs} diverged"
            assert result.wall_virtual_s == ref.wall_virtual_s


class TestFairShareBilling:
    def test_shards_are_billed_their_pair_count(self, monkeypatch):
        # The DRR currency is the shard's pair count: every shard the
        # service submits costs exactly as many pairs as it measures,
        # including the partial shard that closes each facet.
        seen, submitted = [], []
        original = FairShareScheduler.submit

        def spy(self, queue, cost, fn):
            def counted():
                results, retries = fn()
                seen.append((cost, len(results)))
                return results, retries

            submitted.append(cost)
            return original(self, queue, cost, counted)

        monkeypatch.setattr(FairShareScheduler, "submit", spy)
        facets = (1410.0, 1095.0)

        async def main():
            service = CampaignService(fleet_size=1, shard_pairs=4)
            await service.start()
            campaign_id = await service.submit(
                _request(
                    17,
                    frequencies=(1215.0, 810.0, 405.0),
                    axis="memory",
                    locked_sm_mhz=list(facets),
                )
            )
            result = await service.result(campaign_id)
            await service.stop()
            return result

        result = asyncio.run(main())
        expected = []
        for facet in facets:
            n = sum(
                1
                for p in result.pairs.values()
                if p.locked_sm_mhz == facet and not p.skipped
            )
            assert n % 4  # each facet ends on a partial shard
            expected += [4] * (n // 4) + ([n % 4] if n % 4 else [])
        assert submitted == expected
        assert sorted(seen) == sorted((n, n) for n in expected)


class TestRestartResume:
    def test_restart_resumes_two_interleaved_campaigns(self, tmp_path):
        """Kill mid-flight, restart over the journal root, finish
        bit-identically — both campaigns, interleaved on one slot."""
        root = tmp_path / "journals"
        refs = {}
        for seed in (11, 22):
            outdir = tmp_path / f"ref{seed}"
            refs[seed] = (
                _standalone(seed, output_dir=str(outdir)),
                _csv_bytes(outdir),
            )

        async def first_service():
            # One slot + one-pair shards: the two campaigns interleave
            # shard by shard, and a cancel lands with pairs still to go.
            service = CampaignService(
                fleet_size=1, journal_root=root, shard_pairs=1
            )
            await service.start()
            ids = {}
            for seed, tenant in ((11, "alice"), (22, "bob")):
                outdir = tmp_path / f"svc{seed}"
                ids[seed] = await service.submit(
                    _request(seed, tenant=tenant, output_dir=str(outdir))
                )
            cancelled = await asyncio.gather(
                _measured_then_cancel(service, ids[11], 2),
                _measured_then_cancel(service, ids[22], 2),
            )
            states = {
                seed: service.status(ids[seed]).state for seed in ids
            }
            await service.stop()
            return ids, cancelled, states

        ids, cancelled, states = asyncio.run(first_service())
        assert all(cancelled)
        assert set(states.values()) == {"cancelled"}
        for campaign_id in ids.values():
            directory = root / campaign_id
            assert (directory / "request.json").is_file()
            assert (directory / "meta.json").is_file()
            assert not (directory / "result.json").exists()

        async def second_service():
            service = CampaignService(fleet_size=2, journal_root=root)
            resumed = await service.start()
            results = {
                campaign_id: await service.result(campaign_id)
                for campaign_id in resumed
            }
            statuses = {
                campaign_id: service.status(campaign_id)
                for campaign_id in resumed
            }
            await service.stop()
            return resumed, results, statuses

        resumed, results, statuses = asyncio.run(second_service())
        assert sorted(resumed) == sorted(ids.values())
        for seed, campaign_id in ids.items():
            ref, ref_csvs = refs[seed]
            result = results[campaign_id]
            assert result.wall_virtual_s == ref.wall_virtual_s
            assert _campaign_fingerprint(result) == (
                _campaign_fingerprint(ref)
            )
            assert _csv_bytes(tmp_path / f"svc{seed}") == ref_csvs
            status = statuses[campaign_id]
            assert status.resumed
            assert status.replayed >= 2  # journaled pairs came back free
            assert (root / campaign_id / "result.json").is_file()

    def test_finished_campaigns_are_not_resumed(self, tmp_path):
        root = tmp_path / "journals"

        async def run_and_restart():
            service = CampaignService(fleet_size=2, journal_root=root)
            await service.start()
            campaign_id = await service.submit(_request(11))
            await service.result(campaign_id)
            await service.stop()

            again = CampaignService(fleet_size=2, journal_root=root)
            resumed = await again.start()
            await again.stop()
            return resumed

        assert asyncio.run(run_and_restart()) == []


class TestLifecycleEdges:
    def test_submit_during_drain_is_rejected(self):
        async def main():
            service = CampaignService(fleet_size=2, shard_pairs=2)
            await service.start()
            campaign_id = await service.submit(_request(11))
            drain = asyncio.ensure_future(service.drain())
            await asyncio.sleep(0)  # drain() sets the flag immediately
            with pytest.raises(ServiceUnavailable, match="draining"):
                await service.submit(_request(22))
            await drain
            # the in-flight campaign still completed normally
            result = await service.result(campaign_id)
            await service.stop()
            return result

        result = asyncio.run(main())
        assert result.wall_virtual_s == _standalone(11).wall_virtual_s

    def test_cancel_mid_facet_is_cooperative(self):
        async def main():
            service = CampaignService(fleet_size=1, shard_pairs=1)
            await service.start()
            campaign_id = await service.submit(_request(11))
            cancelled = await _measured_then_cancel(
                service, campaign_id, 1
            )
            status = service.status(campaign_id)
            broadcast = service._get(campaign_id).broadcast
            with pytest.raises(ServiceUnavailable, match="cancelled"):
                await service.result(campaign_id)
            await service.stop()
            return cancelled, status, broadcast.interrupted

        cancelled, status, interrupted = asyncio.run(main())
        assert cancelled
        assert status.state == "cancelled"
        assert 0 < status.measured < 6  # stopped partway, not at the end
        assert interrupted  # stream ended without CampaignFinished

    def test_cancel_after_completion_returns_false(self):
        async def main():
            service = CampaignService(fleet_size=2)
            await service.start()
            campaign_id = await service.submit(_request(11))
            await service.result(campaign_id)
            cancelled = await service.cancel(campaign_id)
            await service.stop()
            return cancelled

        assert asyncio.run(main()) is False

    def test_failed_campaign_surfaces_error(self):
        async def main():
            service = CampaignService(fleet_size=1)
            await service.start()
            bad = CampaignRequest(
                gpu_model="NOPE",
                seed=11,
                config=dict(FAST, frequencies=list(SM_FREQS)),
            )
            campaign_id = await service.submit(bad)
            with pytest.raises(ServiceUnavailable, match="failed"):
                await service.result(campaign_id)
            status = service.status(campaign_id)
            await service.stop()
            return status

        status = asyncio.run(main())
        assert status.state == "failed"
        assert status.error

    def test_shard_retry_is_recorded_and_bit_identical(self, tmp_path):
        """A shard that raises once is retried; the result is unchanged."""
        ref = _standalone(11, output_dir=str(tmp_path / "ref"))

        async def main():
            service = CampaignService(fleet_size=2)
            await service.start()
            campaign_id = await service.submit(
                _request(
                    11,
                    inject_faults="raise@1",
                    retry_backoff_s=0.0,
                    output_dir=str(tmp_path / "svc"),
                )
            )
            result = await service.result(campaign_id)
            retries = [
                event
                async for event in service.events(campaign_id)
                if isinstance(event, PairRetried)
            ]
            status = service.status(campaign_id)
            await service.stop()
            return result, retries, status

        result, retries, status = asyncio.run(main())
        assert result.wall_virtual_s == ref.wall_virtual_s
        assert _csv_bytes(tmp_path / "svc") == _csv_bytes(tmp_path / "ref")
        assert len(retries) == 1
        (retry,) = retries
        assert retry.attempt == 1
        assert 1 in retry.indices
        assert retry.cause.startswith("worker-error: FaultInjected")
        assert status.retried == 1

    def test_unknown_campaign_id_rejected(self):
        async def main():
            service = CampaignService(fleet_size=1)
            await service.start()
            with pytest.raises(ServiceUnavailable, match="unknown"):
                service.status("c9999")
            await service.stop()

        asyncio.run(main())


class TestSharedCalibrationCache:
    def test_two_tenants_share_one_cache(self, tmp_path):
        cache = tmp_path / "calib"
        ref = _standalone(11)

        async def main():
            service = CampaignService(
                fleet_size=2, calibration_cache=str(cache)
            )
            await service.start()

            async def facet_events(campaign_id):
                return [
                    event
                    async for event in service.events(campaign_id)
                    if isinstance(event, FacetPrepared)
                ]

            first = await service.submit(_request(11, tenant="alice"))
            result_a = await service.result(first)
            facets_a = await facet_events(first)

            second = await service.submit(_request(11, tenant="bob"))
            result_b = await service.result(second)
            facets_b = await facet_events(second)
            await service.stop()
            return result_a, facets_a, result_b, facets_b

        result_a, facets_a, result_b, facets_b = asyncio.run(main())
        # alice populated the cache cold; bob hits every facet warm
        assert facets_a and not any(f.cache_hit for f in facets_a)
        assert facets_b and all(f.cache_hit for f in facets_b)
        # the shared cache never changes measurement results
        for result in (result_a, result_b):
            assert result.wall_virtual_s == ref.wall_virtual_s
            assert _campaign_fingerprint(result) == (
                _campaign_fingerprint(ref)
            )


class TestSocketTransport:
    def test_full_roundtrip_over_unix_socket(self, tmp_path):
        socket_path = tmp_path / "svc.sock"
        ref = _standalone(11)

        async def main():
            service = CampaignService(fleet_size=2, shard_pairs=2)
            await service.start()
            server = ServiceServer(service, socket_path)
            await server.start()
            client = SocketClient(socket_path)
            assert await client.ping()
            campaign_id = await client.submit(_request(11))
            events = [
                event async for event in client.events(campaign_id)
            ]
            status = await client.status(campaign_id)
            everything = await client.status()
            with pytest.raises(ServiceUnavailable, match="unknown"):
                await client.status("c9999")
            assert not await client.cancel(campaign_id)
            await server.close()
            await service.stop()
            return campaign_id, events, status, everything

        campaign_id, events, status, everything = asyncio.run(main())
        assert not socket_path.exists()  # close() removed the socket
        types = [event["type"] for event in events]
        assert types[0] == "campaign_started"
        assert types[-1] == "campaign_finished"
        assert types.count("pair_measured") == 6
        assert events[-1]["wall_virtual_s"] == ref.wall_virtual_s
        assert status["campaign_id"] == campaign_id
        assert status["state"] == "finished"
        assert status["wall_virtual_s"] == ref.wall_virtual_s
        assert [s["campaign_id"] for s in everything] == [campaign_id]

    def test_wire_events_are_json_serializable(self):
        ref = _standalone(11)

        async def main():
            service = CampaignService(fleet_size=1)
            await service.start()
            campaign_id = await service.submit(_request(11))
            await service.result(campaign_id)
            events = [
                event async for event in service.events(campaign_id)
            ]
            await service.stop()
            return events

        events = asyncio.run(main())
        for event in events:
            wire = event_to_wire(event)
            assert json.loads(json.dumps(wire)) == wire
        assert ref.wall_virtual_s == [
            event_to_wire(e)
            for e in events
            if type(e).__name__ == "CampaignFinished"
        ][0]["wall_virtual_s"]


class TestRequestValidation:
    def test_unknown_config_field_rejected_at_submit_time(self):
        with pytest.raises(ConfigError, match="unknown config"):
            CampaignRequest(config={"not_a_field": 1})

    def test_wire_cannot_select_a_block_size(self):
        # The pass-block loop is the only per-pair loop: neither a tenant
        # nor a library caller can pick another one or resize its blocks.
        with pytest.raises(ConfigError, match="pass_block_size"):
            CampaignRequest(config={"pass_block_size": None})
        with pytest.raises(TypeError, match="pass_block_size"):
            LatestConfig(pass_block_size=5)

    def test_unserializable_config_fields_banned(self):
        with pytest.raises(ConfigError, match="ptp_link"):
            CampaignRequest(config={"ptp_link": None})

    def test_job_deadline_refused_at_submit_time(self):
        # Shards run on fleet threads, which no deadline can pre-empt.
        with pytest.raises(ConfigError, match="job_timeout_s"):
            CampaignRequest(config={"job_timeout_s": 1.0})

    def test_tenant_and_weight_validated(self):
        with pytest.raises(ConfigError, match="tenant"):
            CampaignRequest(tenant="")
        with pytest.raises(ConfigError, match="weight"):
            CampaignRequest(weight=0.0)

    def test_json_round_trip_preserves_request(self):
        request = _request(42, tenant="alice", weight=2.5)
        assert CampaignRequest.from_json(request.to_json()) == request

    def test_from_json_rejects_unknown_fields(self):
        with pytest.raises(ConfigError, match="unknown campaign request"):
            CampaignRequest.from_json('{"tenant": "a", "bogus": 1}')

    def test_build_config_normalizes_lists_to_tuples(self):
        config = _request(0).build_config()
        assert isinstance(config.frequencies, tuple)
        assert config.frequencies == SM_FREQS

    def test_request_config_overrides_service_defaults(self):
        request = _request(0, calibration_cache=None)
        config = request.build_config(calibration_cache="/shared/cache")
        assert config.calibration_cache is None
