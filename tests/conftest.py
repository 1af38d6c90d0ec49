import dataclasses
import math

import numpy as np
import pytest

from homsim import BeamSplitterConfig, EmitterParams, analysis, normalize, run_replicas
from homsim.pipeline import default_run_config


@pytest.fixture
def strong_dephasing():
    # gamma_pure = 3 gamma_spon: the analytic showcase operating point
    return EmitterParams(gamma_spon=1.0, gamma_pure=3.0, w_p=2.5)


@pytest.fixture
def molecule():
    # 3.4 ns lifetime, weak residual dephasing
    return EmitterParams(gamma_spon=1 / 3.4, gamma_pure=0.2, w_p=6.5)


@pytest.fixture
def balanced_splitter():
    return BeamSplitterConfig(theta=math.pi / 4, mode_match=1.0)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture(scope="session")
def small_pair():
    # a Monte Carlo parallel/orthogonal pair at the default run config,
    # normalized and rebinned by 2 as analyze does
    hists = []
    for pol, seed in (("parallel", 21), ("orthogonal", 22)):
        rc = default_run_config()
        rc = dataclasses.replace(rc, interferometer=dataclasses.replace(rc.interferometer, pol_mode=pol), seed=seed)
        _, h = run_replicas(rc)
        hists.append(analysis.rebin(normalize(h, rc.norm_region), 2))
    return hists
