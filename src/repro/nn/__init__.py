"""Neural-network building blocks used across the reproduction.

The paper's models are small: 2-layer GCN encoders, an MLP attribute
decoder and an MLP statistics network for the MINE mutual-information
estimator, all trained with Adam.  This subpackage provides exactly those
pieces on top of the :mod:`repro.tensor` autodiff engine.
"""

from repro.nn.module import Module, Parameter
from repro.nn.layers import Linear, MLP, GCNConv
from repro.nn.optim import Adam, Optimizer
from repro.nn.init import glorot_uniform, zeros

__all__ = [
    "Module",
    "Parameter",
    "Linear",
    "MLP",
    "GCNConv",
    "Adam",
    "Optimizer",
    "glorot_uniform",
    "zeros",
]
