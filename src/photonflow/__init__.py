"""Local momentum, weak-measurement readout, forces, and trajectories of
structured optical fields, built on an analytic field catalog with exact
gradients."""

__version__ = "0.1.0"

from .anomaly import (
    LABELS,
    AnomalyMap,
    VortexRecord,
    classify_anomalies,
    detect_vortices,
    phase_winding,
    plaquette_winding,
    wrap_angle,
)
from .errors import (
    DegeneratePointerError,
    ParameterError,
    RegimeError,
    ResolutionError,
    SeedError,
    SingularPointError,
)
from .fields import (
    BesselSpec,
    EvanescentSpec,
    FieldSample,
    FieldSpec,
    GaussianPairSpec,
    PlaneWaveSpec,
    TirTwoWaveSpec,
    WaveParameters,
    evaluate,
    field_from_dict,
    field_to_dict,
)
from .forces import Polarizability, force_from_sample, normalized_forces, optical_force
from .grids import GridSpec
from .observables import (
    ComplexMomentum,
    PolarizationState,
    PoyntingDecomposition,
    embed3,
    group_velocity,
    local_momentum,
    momentum_ratio,
    poynting_decomposition,
)
from .tracing import TraceConfig, Trajectory, trace_bessel_helix, trace_streamline
from .weakmeasure import (
    CalciteSpec,
    StokesVector,
    apply_calcite,
    exact_stokes,
    momentum_from_stokes,
    predicted_stokes,
)

__all__ = [name for name in dir() if not name.startswith("_")]
