"""Calibrated cost model reproducing the paper's §4.3 testbed (DESIGN.md §4).

The paper measures medians over 30 searches on a 10 Mb/s LAN between
Linux/P4 workstations, with OpenSLP as the SLP stack and CyberLink for Java
as the UPnP stack.  Our substrates charge per-operation processing delays;
the constants below are calibrated so the *native* baselines land on the
paper's Figure 7 and the placement deltas (Figs. 8-9) follow from
structure, not tuning:

* native SLP 0.7 ms = two small UDP messages + OpenSLP library processing;
* native UPnP 40 ms = SSDP responder latency (MX-window jitter + JVM
  scheduling; the paper observes 40 ms even with ``MX: 0``);
* the service-side/client-side difference for SLP->UPnP (+15 ms, 65 vs
  80 ms) = the two UPnP requests crossing the LAN, dominated by the
  description document's serialization time (CyberLink emits a verbose
  document, modelled by ``description_pad_bytes``);
* UPnP->SLP on the service side = 40 ms because INDISS's own SSDP composer
  honours the same responder-delay semantics toward remote requesters;
* Fig. 9b's 0.12 ms needs the warm service cache plus the loopback
  no-jitter rule (see DESIGN.md's note: the paper's number is below its own
  native-SLP figure, so no network SLP round trip fits inside it).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core.unit import IndissTimings
from ..net import LatencyModel
from ..sdp.slp import SlpTimings
from ..sdp.upnp import UpnpTimings


@dataclass
class CostModel:
    """Every latency constant of one simulated testbed."""

    #: Per-message LAN cost (switch + kernel) and bandwidth.
    lan_latency_us: int = 150
    lan_jitter_us: int = 60
    bandwidth_bps: int = 10_000_000  # the paper's "LAN at 10Mb/s"
    loopback_latency_us: int = 15

    #: OpenSLP-like library processing per step (request build, match,
    #: reply parse).  3 x 60 us + ~0.5 ms of network = 0.7 ms native median.
    slp: SlpTimings = field(
        default_factory=lambda: SlpTimings(
            request_build_us=80,
            reply_parse_us=80,
            match_us=80,
            register_us=80,
            advert_build_us=80,
        )
    )

    #: CyberLink-like UPnP stack.  The responder window dominates: the
    #: device answers an M-SEARCH 36.5-40.5 ms after receipt (median 38.5).
    upnp: UpnpTimings = field(
        default_factory=lambda: UpnpTimings(
            search_response_min_us=37_500,
            search_response_max_us=41_500,
            description_serve_us=25_200,
            scpd_serve_us=2_000,
            soap_handle_us=2_000,
            msearch_build_us=40,
            response_parse_us=25,
            description_parse_us=800,
            description_pad_bytes=14_000,
        )
    )

    #: INDISS's own event processing (tens of microseconds, paper §4.3's
    #: framing that the native stacks dominate).
    indiss: IndissTimings = field(
        default_factory=lambda: IndissTimings(
            parse_us=20,
            compose_us=25,
            dispatch_us=5,
            xml_parse_us=400,
            cache_lookup_us=5,
        )
    )

    #: INDISS's SSDP composer honours the same responder-delay window
    #: toward remote requesters as a compliant native device.
    indiss_upnp_responder_delay_us: tuple[int, int] = (37_500, 41_500)

    def latency_model(self, seed: int = 0) -> LatencyModel:
        return LatencyModel(
            lan_latency_us=self.lan_latency_us,
            loopback_latency_us=self.loopback_latency_us,
            bandwidth_bps=self.bandwidth_bps,
            jitter_us=self.lan_jitter_us,
            seed=seed,
        )


#: The default calibrated testbed.
PAPER_TESTBED = CostModel()


#: Paper §4.3 reference numbers (milliseconds), used by reports and the
#: shape assertions in the benchmarks.
PAPER_RESULTS_MS = {
    "fig7_native_slp": 0.7,
    "fig7_native_upnp": 40.0,
    "fig8_slp_to_upnp_service_side": 65.0,
    "fig8_upnp_to_slp_service_side": 40.0,
    "fig9_slp_to_upnp_client_side": 80.0,
    "fig9_upnp_to_slp_client_side": 0.12,
}

#: The catalog scenario (``repro.world.scenarios.SCENARIO_SPECS``) each
#: figure key above measures.
PAPER_SCENARIOS = {
    "fig7_native_slp": "native_slp",
    "fig7_native_upnp": "native_upnp",
    "fig8_slp_to_upnp_service_side": "slp_to_upnp_service_side",
    "fig8_upnp_to_slp_service_side": "upnp_to_slp_service_side",
    "fig9_slp_to_upnp_client_side": "slp_to_upnp_client_side",
    "fig9_upnp_to_slp_client_side": "upnp_to_slp_client_side",
}

#: Paper Table 2 reference numbers.
PAPER_TABLE2 = {
    "core_framework": {"kb": 44, "classes": 15, "ncss": 789},
    "upnp_unit": {"kb": 125, "classes": 18, "ncss": 1515},
    "slp_unit": {"kb": 49, "classes": 6, "ncss": 606},
    "indiss_total": {"kb": 218, "classes": 39, "ncss": 2910},
    "openslp": {"kb": 126, "classes": 21, "ncss": 1361},
    "cyberlink": {"kb": 372, "classes": 107, "ncss": 5887},
    "dual_stack_no_indiss_kb": 514,
    "upnp_with_indiss_kb": 598,
    "slp_with_indiss_kb": 352,
    "upnp_overhead_pct": 14.0,
    "slp_overhead_pct": -31.5,
}


__all__ = [
    "CostModel", "PAPER_TESTBED", "PAPER_RESULTS_MS", "PAPER_SCENARIOS", "PAPER_TABLE2",
]
