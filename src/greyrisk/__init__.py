"""Dynamic multi-criteria risk ranking via volumetric grey incidence.

Areas scored on weighted indices over several periods are compared against
the elementwise-extreme ideal matrices; volumetric grey incidence degrees
toward both ideals feed a closed-form superiority degree used for ranking
and seven-grade risk classification.
"""

from ._meta import VERSION as __version__
from .incidence import ZeroingMode, local_volume, zeroing_image
from .io import InputFormatError, load_input
from .model import AssessmentInput, IndexDefinition, Orientation, ValidationError
from .pipeline import RunConfig, run_assessment
from .ranking import (
    DegenerateAssessmentError,
    RiskLevel,
    classify,
    rank_areas,
    superiority_degree,
)

__all__ = [
    "__version__",
    "AssessmentInput",
    "DegenerateAssessmentError",
    "IndexDefinition",
    "InputFormatError",
    "Orientation",
    "RiskLevel",
    "RunConfig",
    "ValidationError",
    "ZeroingMode",
    "classify",
    "load_input",
    "local_volume",
    "rank_areas",
    "run_assessment",
    "superiority_degree",
    "zeroing_image",
]
