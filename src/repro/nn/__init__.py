"""Neural-network building blocks used across the reproduction.

The paper's models are small: 2-layer GCN encoders, inner-product or MLP
decoders, and an MLP statistics network for the MINE mutual-information
estimator.  This subpackage provides exactly those pieces on top of the
:mod:`repro.tensor` autodiff engine.
"""

from repro.nn.module import Module, Parameter
from repro.nn.layers import Linear, MLP, GCNConv, GraphSNNConv, InnerProductDecoder, Dropout, Sequential
from repro.nn.optim import SGD, Adam, Optimizer
from repro.nn.init import glorot_uniform, zeros, uniform

__all__ = [
    "Module",
    "Parameter",
    "Linear",
    "MLP",
    "GCNConv",
    "GraphSNNConv",
    "InnerProductDecoder",
    "Dropout",
    "Sequential",
    "SGD",
    "Adam",
    "Optimizer",
    "glorot_uniform",
    "zeros",
    "uniform",
]
