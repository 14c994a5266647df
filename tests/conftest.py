import datetime as dt

import pytest

from clusterloss import (
    IntensitySchedule,
    PoolSpec,
    load_curve,
    load_quotes,
)
from clusterloss import loss_engine, pricer
from clusterloss.fixtures import (
    FIXTURE_VALUATION_DATE,
    curve_path,
    quotes_path,
    schedule_path,
)


@pytest.fixture(autouse=True)
def _fresh_caches():
    """Every test starts with the kernel's interval cache and the pricer's
    panel memo empty, so that it neither reads rows an earlier test left
    (one made under a patched Poisson tail, say) nor depends on what ran
    before it."""
    loss_engine._interval_rows.cache_clear()
    pricer._panel_block.cache_clear()


@pytest.fixture(scope="session")
def valuation_date() -> dt.date:
    return FIXTURE_VALUATION_DATE


@pytest.fixture(scope="session")
def pool() -> PoolSpec:
    return PoolSpec()


@pytest.fixture(scope="session")
def curve(valuation_date):
    return load_curve(curve_path(), valuation_date)


@pytest.fixture(scope="session")
def itraxx_panel(valuation_date):
    return load_quotes(quotes_path("itraxx"), valuation_date)


@pytest.fixture(scope="session")
def cdx_panel(valuation_date):
    return load_quotes(quotes_path("cdx"), valuation_date)


def _load_schedule(model, pool_name="itraxx"):
    with open(schedule_path(model, pool_name)) as fh:
        return IntensitySchedule.from_json(fh.read())


@pytest.fixture(scope="session")
def gpl_schedule():
    return _load_schedule("gpl")


@pytest.fixture(scope="session")
def gpcl_schedule():
    return _load_schedule("gpcl")
