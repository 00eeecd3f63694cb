"""reuselab: active-learning sample selection and reusability experiments.

The package has four layers: ``datasets`` (synthetic generators, CSV
ingestion, splits), ``learners`` (an online linear selector and
importance-weighted batch consumers), ``selection`` (random, uncertainty,
and biased-coin IWAL strategies with replayable traces), and
``experiments`` (the repetition engine, learning-curve aggregation, and
reusability verdicts). ``cli`` wraps it all for the command line.
"""

__version__ = "0.1.0"

from .datasets import (
    Dataset,
    DatasetSpec,
    SplitPair,
    gen_circle,
    gen_four_cluster_line,
    gen_uniform_line,
    load_csv,
    make_dataset,
    split,
)
from .errors import (
    ConfigError,
    ConvergenceError,
    DataFormatError,
    DegenerateGridError,
    InvalidArgumentError,
    MissingClassError,
    ReuselabError,
    SingleClassDataError,
    SingularDataError,
    TraceFormatError,
    UnknownCategoryError,
)
from .experiments import (
    ConsumerSpec,
    CurvePoint,
    ExperimentConfig,
    ExperimentResult,
    ReusabilityCell,
    density_histogram,
    replay_trace,
    run_experiment,
)
from .learners import (
    Kernel,
    fit_lda,
    fit_least_squares,
    fit_online_linear,
    fit_qda,
    fit_svm,
    linear_kernel,
    make_online_model,
    online_linear_update,
    poly3_kernel,
    rbf_kernel,
    zero_one_error,
)
from .selection import (
    IwalConfig,
    SelectionResult,
    load_trace,
    select_iwal,
    select_random,
    select_uncertainty,
    selection_probability,
    surrogate_error_difference,
    trace_columns,
    without_weights,
)
