"""End-to-end certificate forgery against Fast & Robust's backup phase."""

import pytest

from repro import (
    FastRobust,
    FastRobustConfig,
    FaultScript,
    ProofForger,
    run_consensus,
)
from repro.consensus.cheap_quorum import CheapQuorumConfig

_FR = FastRobustConfig(
    cheap_quorum=CheapQuorumConfig(leader_timeout=15.0, unanimity_timeout=25.0)
)


class TestProofForger:
    def test_forged_certificate_never_wins(self):
        faults = FaultScript().make_byzantine(2, ProofForger("FORGED"))
        result = run_consensus(
            FastRobust(_FR), 3, 3, faults=faults,
            inputs=["honest-L", "honest-2", "ignored"], deadline=60_000,
        )
        assert result.all_decided and result.agreed
        assert result.decided_values == {"honest-L"}  # the real fast path won
        assert "FORGED" not in result.decided_values

    def test_forged_certificate_with_crashed_leader(self):
        """Harder: the honest leader never writes, so the honest inputs are
        bare-class — even then the forged 'top priority' value must be
        demoted to bare and cannot be guaranteed the win by its tag."""
        faults = (
            FaultScript()
            .at(0.0).crash_process(0)
            .make_byzantine(2, ProofForger("FORGED"))
        )
        result = run_consensus(
            FastRobust(_FR), 5, 3, faults=faults,
            omega="crash-aware",
            inputs=["dead", "h1", "forger", "h2", "h3"],
            deadline=120_000,
        )
        assert result.all_decided and result.agreed
        # Weak Byzantine agreement permits a Byzantine *input* to be the
        # decision (it is one bare value among others once demoted); what
        # must fail is the forged *certificate*.  We verify the demotion
        # directly: the exact SetupValue the forger broadcast carries
        # effective priority BARE at every honest receiver.
        from repro.consensus.messages import SetupValue
        from repro.consensus.preferential_paxos import (
            PRIORITY_BARE,
            effective_priority,
        )
        from repro.crypto.proofs import assemble_proof
        from repro.sim.environment import ProcessEnv
        from repro.types import ProcessId

        kernel = result.kernel
        forger_env = ProcessEnv(kernel, ProcessId(2))
        inner = forger_env.sign("FORGED")
        fake = assemble_proof(
            kernel.authority, forger_env.key, inner, (forger_env.sign(inner),)
        )
        sv = SetupValue(value="FORGED", priority=0, payload=fake)
        honest_env = ProcessEnv(kernel, ProcessId(1))
        assert (
            effective_priority(honest_env, sv, ProcessId(0), 5) == PRIORITY_BARE
        )

    def test_forger_alone_cannot_block_termination(self):
        faults = FaultScript().make_byzantine(1, ProofForger())
        result = run_consensus(
            FastRobust(_FR), 3, 3, faults=faults, deadline=60_000
        )
        assert result.all_decided
