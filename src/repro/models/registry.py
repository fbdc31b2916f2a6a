"""Registry of the five synthetic models under their Figure 4 names."""

from __future__ import annotations

from typing import Callable, Dict, List

from repro.models.base import WorkloadModel
from repro.models.downey import DowneyModel
from repro.models.feitelson96 import Feitelson96Model
from repro.models.feitelson97 import Feitelson97Model
from repro.models.jann import JannModel
from repro.models.lublin import LublinModel

__all__ = ["MODEL_NAMES", "create_model", "all_models"]

_FACTORIES: Dict[str, Callable[[], WorkloadModel]] = {
    "Feitelson96": Feitelson96Model,
    "Feitelson97": Feitelson97Model,
    "Downey": DowneyModel,
    "Jann": JannModel.default,
    "Lublin": LublinModel,
}

#: The five model names, in the paper's Section 7 presentation order.
MODEL_NAMES = tuple(_FACTORIES)


def create_model(name: str) -> WorkloadModel:
    """Instantiate a model by its Figure 4 name with default parameters."""
    try:
        factory = _FACTORIES[name]
    except KeyError:
        raise KeyError(f"unknown model {name!r}; known: {', '.join(MODEL_NAMES)}") from None
    return factory()


def all_models() -> List[WorkloadModel]:
    """All five models with default parameters, in presentation order."""
    return [create_model(name) for name in MODEL_NAMES]
