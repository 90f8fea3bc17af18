"""Fast mode vs the full Dimemas replay, across apps.

The sweep's default ``fast`` mode times the compute region only;
``replay`` splices the same compute timings into the event-driven MPI
replay, which adds communication.  The two must agree up to that
communication, or the 864-point campaign would not be trustworthy.

The communication term is priced here by a closed-form oracle (halo
injection plus collectives), independent of the replay engine: fast
mode plus the oracle must track the replay closely, and replay can
never finish before the compute region it contains.
"""

import pytest

from repro.apps import APP_NAMES, get_app
from repro.apps.base import grid_neighbors, rank_grid_dims
from repro.config import baseline_node
from repro.core import Musa
from repro.network.collectives import collective_cost_ns

#: Fast mode plus the oracle measured 0.05-0.94% from replay on every
#: point below; 2% leaves room for float noise, not for model drift.
REL = 0.02


def comm_iteration_ns(musa: Musa, n_ranks: int) -> float:
    """Analytic per-iteration communication cost of ``musa``'s app.

    Halo injection (sequential isend/irecv posting, pipelined transfers
    sharing the NIC, one exchange per phase) plus the iteration's
    allreduces.  Configuration-invariant: the network is fixed across
    the design space, as in the paper.
    """
    if n_ranks == 1:
        return 0.0
    net = musa.network
    n_nb = len(grid_neighbors(0, rank_grid_dims(n_ranks)))
    halo_once = (
        2 * n_nb * net.overhead_ns
        + n_nb * musa.app.halo_bytes / net.bandwidth_gbs
        + net.latency_us * 1e3
    )
    halo = halo_once * len(musa.phases)
    coll = musa.app.allreduce_per_iter * collective_cost_ns(
        "allreduce", n_ranks, 8, net)
    return halo + coll


def check_point(musa, node, n_ranks, n_iterations):
    fast = musa.simulate_node(node, n_ranks=n_ranks,
                              n_iterations=n_iterations, mode="fast")
    full = musa.simulate_node(node, n_ranks=n_ranks,
                              n_iterations=n_iterations, mode="replay")
    assert full.time_ns >= fast.time_ns * (1 - 1e-12), (
        musa.app.name, node.label, fast.time_ns, full.time_ns)
    modelled = fast.time_ns + n_iterations * comm_iteration_ns(musa, n_ranks)
    assert modelled == pytest.approx(full.time_ns, rel=REL), (
        musa.app.name, node.label, modelled, full.time_ns)


@pytest.mark.parametrize("app", APP_NAMES)
@pytest.mark.parametrize("cores", [32, 64])
def test_fast_tracks_replay(app, cores):
    check_point(Musa(get_app(app)), baseline_node(cores), 16, 2)


@pytest.mark.parametrize("app", ["hydro", "lulesh"])
def test_fast_tracks_replay_across_configs(app):
    musa = Musa(get_app(app))
    for node in (baseline_node(64).with_(vector_bits=512),
                 baseline_node(64).with_(core="lowend"),
                 baseline_node(64).with_(memory="8chDDR4")):
        check_point(musa, node, 8, 1)


class TestCommOracle:
    def test_single_rank_no_comm(self):
        assert comm_iteration_ns(Musa(get_app("spmz")), 1) == 0.0

    def test_comm_grows_with_halo(self):
        a = comm_iteration_ns(Musa(get_app("hydro")), 256)
        b = comm_iteration_ns(Musa(get_app("btmz")), 256)
        assert b > a  # btmz has much bigger halos
