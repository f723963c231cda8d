import pytest

from oxsim import (
    ChipConfig,
    apply_profile,
    default_tech_params,
    get_profile,
    load_topology,
)


@pytest.fixture(scope="session")
def tech_default():
    return default_tech_params()


@pytest.fixture(scope="session")
def tech_calibrated():
    return apply_profile(default_tech_params(), get_profile("paper-consistent"))


@pytest.fixture(scope="session")
def resnet_layers():
    return load_topology("resnet50_v15")[0]


@pytest.fixture(scope="session")
def toy_layers():
    return load_topology("toy3")[0]


@pytest.fixture
def headline_config():
    # published optimal operating point: 128x128 dual core, batch 32,
    # 26.3 MB input SRAM plus 0.75 MB output/filter/accumulator banks
    return ChipConfig(rows=128, cols=128, cores=2, batch=32,
                      sram_input_mb=26.3, sram_filter_mb=0.75,
                      sram_output_mb=0.75, sram_acc_mb=0.75)
