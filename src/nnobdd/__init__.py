"""nnobdd: binary step-activation networks compiled to canonical decision diagrams.

The pipeline: describe a neuron or a layered binary network, compile it to
a reduced ordered binary decision diagram, then answer exact verification
and explanation queries on the compiled form (robustness, sufficient
reasons, fooling completions, marginals, unateness).
"""

from .analysis import (
    Explanation,
    PolaritySummary,
    RobustnessProfile,
    Unateness,
    dataset_average_robustness,
    fooling_complete,
    instance_robustness,
    marginal,
    marginal_grid,
    max_robustness,
    model_robustness,
    pi_explanation,
    polarity_summary,
    robust_sets,
    unateness,
    unateness_grid,
)
from .network import (
    CompiledNetwork,
    ConvFilter,
    ConvStep,
    DenseStep,
    MaxPoolOr,
    NetworkSpec,
    ShapeError,
    compile_network,
    forward_eval,
    load_spec,
    read_spec,
)
from .neuron import (
    IntThresholdUnit,
    LinearThresholdUnit,
    QuantizationError,
    compile_pseudo,
    exact_decimal,
    format_neuron,
    parse_neuron,
    quantize,
    read_neuron,
    write_neuron,
)
from .obdd import (
    BudgetExceededError,
    Manager,
    NodeRef,
    OBDDError,
    read_obdd,
    write_obdd,
)
from .trainer import (
    LabeledDataset,
    SweepRow,
    TrainConfig,
    accuracy,
    precision_sweep,
    read_dataset_csv,
    train_neuron,
    write_dataset_csv,
)

__version__ = "0.1.0"
