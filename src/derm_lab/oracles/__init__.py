"""Classical numerical methods used as independent references.

Nothing in here touches the autodiff stack: finite differences, transform
integration, lattice and regression methods only, so they can arbitrate
what the trained controls produce.
"""

from .black_scholes import bs_call_price, bs_put_price, binomial_american
from .heston import HestonQuote, heston_call_price, heston_put_price, heston_call_quote
from .fd_put import FdSolution, american_put_fd
from .lsm import LsmResult, lsm_price

__all__ = [
    "bs_call_price",
    "bs_put_price",
    "binomial_american",
    "HestonQuote",
    "heston_call_price",
    "heston_put_price",
    "heston_call_quote",
    "FdSolution",
    "american_put_fd",
    "LsmResult",
    "lsm_price",
]
