"""Golden digests of four-core multi-programmed runs.

Pins the SHA-256 of :func:`~repro.sim.parity.canonical_result_json` for the
four quick ``mp_mixes(4)`` mixes on the four Figure 14 machines (the
baseline plus its three variants) at a short per-core length.  The
multi-core driver interleaves cores by commit timestamp; any change to that
interleaving, to the shared hierarchy or to a core's kernel moves these
digests.

After a change that is *meant* to alter simulated results, print the new
digests with ``PYTHONPATH=src python tests/test_mp_digests.py`` and say why
in CHANGES.md.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.plugins.workloads import mix_display
from repro.sim.config import no_l2, skylake_server, with_catch
from repro.sim.multicore import MultiCoreSimulator
from repro.sim.parity import canonical_result_json
from repro.workloads.suites import mp_mixes

#: Measured instructions per core (a warm-up half of the same length runs
#: first), short enough for tier-1.
N_INSTRS = 3000


def fig14_configs():
    """The Figure 14 machines: the baseline and its three variants."""
    base = skylake_server()
    return [
        base,
        no_l2(base, 6.5),
        with_catch(no_l2(base, 6.5), name="noL2+CATCH"),
        with_catch(base, name="CATCH"),
    ]


CONFIGS = {cfg.name: cfg for cfg in fig14_configs()}
MIXES = [mix_display(mix) for mix in mp_mixes(4)]

DIGESTS = {
    "baseline_server|blackscholes_like+blackscholes_like+blackscholes_like+blackscholes_like": "7a8c5acfda9ff97a7536ff8e6aa05c3f89bdcf7208a11359ae40807ba62a29b6",
    "baseline_server|hplinpack_like+hplinpack_like+hplinpack_like+hplinpack_like": "1cfdda2a5e3792d039444e611eae828bd6b2cb67bffd15486508d6454e8884d6",
    "baseline_server|bwaves_like+hmmer_like+zeusmp_like+soplex_like": "833556f1c57fc45506d0046b9e52bd2f33b4d5985457e74073f100ea62a77572",
    "baseline_server|h264ref_like+perlbench_like+povray_like+hplinpack_like": "2904fcd36335b889b9881fe50abb4508e9ae83ba456951644b88453e0349b4c2",
    "noL2_6.5MB|blackscholes_like+blackscholes_like+blackscholes_like+blackscholes_like": "a3f0b52e6840bb5210b16c07cca535132fe1b07e2b8bb7458b8a89c23a1ee758",
    "noL2_6.5MB|hplinpack_like+hplinpack_like+hplinpack_like+hplinpack_like": "b31094f2e6d5e804d4cc36c4e42ad2d88bac24dd100078dff30159b0487adc15",
    "noL2_6.5MB|bwaves_like+hmmer_like+zeusmp_like+soplex_like": "8d6f6cba5b4e135489eb493c3e27b384d3ac77f7ee26233279dfba293e0964db",
    "noL2_6.5MB|h264ref_like+perlbench_like+povray_like+hplinpack_like": "4a2850e4049e56f4cd7cf8aedf92f01ddbbe056c852c81113bf096f4e6a66a63",
    "noL2+CATCH|blackscholes_like+blackscholes_like+blackscholes_like+blackscholes_like": "38c79753c491df7b0653511c32b2888fcfeae8637d6707d5dc9271891be62fd9",
    "noL2+CATCH|hplinpack_like+hplinpack_like+hplinpack_like+hplinpack_like": "10d69d9b610105ecf6f99671f57c6ef152fa4c9108272d92a28c16b2cf398967",
    "noL2+CATCH|bwaves_like+hmmer_like+zeusmp_like+soplex_like": "e5947dd6ba93199e0f8a172593fa5df3e41c39fb6f4b3a6da6f7c47db00dc51b",
    "noL2+CATCH|h264ref_like+perlbench_like+povray_like+hplinpack_like": "2e354c3e192f69c16b88199274f65844d8a3b1c932b9f8832ee75e731d28466f",
    "CATCH|blackscholes_like+blackscholes_like+blackscholes_like+blackscholes_like": "86cf9ebc5a47a6ffcfc7032b66558cdef7172ea0e1901d40f40ff71ec39b0293",
    "CATCH|hplinpack_like+hplinpack_like+hplinpack_like+hplinpack_like": "25c630f5d10ccbd6f43e50d3d9069314016101bd422bd3177d2729d517b84226",
    "CATCH|bwaves_like+hmmer_like+zeusmp_like+soplex_like": "7a24e77f1591a8c189b47f927e79d4fcbdf6d1438fa1fe5e93f722806adb0db7",
    "CATCH|h264ref_like+perlbench_like+povray_like+hplinpack_like": "fe20af166a103e3447bf14ddbfa06149417dceb244dfe784997a60a341bbf3f1",
}


def _digest(config_name: str, mix: str) -> str:
    result = MultiCoreSimulator(CONFIGS[config_name]).run(mix, N_INSTRS)
    return hashlib.sha256(canonical_result_json(result).encode()).hexdigest()


@pytest.mark.parametrize("mix", MIXES)
@pytest.mark.parametrize("config_name", list(CONFIGS))
def test_mp_result_digest(config_name, mix):
    assert _digest(config_name, mix) == DIGESTS[f"{config_name}|{mix}"]


if __name__ == "__main__":
    print("DIGESTS = {")
    for name in CONFIGS:
        for mix in MIXES:
            print(f'    "{name}|{mix}": "{_digest(name, mix)}",')
    print("}")
