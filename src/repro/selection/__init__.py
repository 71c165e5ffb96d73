"""Self-selection / self-configuration of forecast models (paper Section 5)."""

from .backtest import BacktestResult, compare_backtests, rolling_backtest
from .auto import AutoConfig, SelectionOutcome, auto_forecast, auto_select, auto_select_many
from .diagnostics import ResidualDiagnostics, diagnose_residuals, jarque_bera
from .correlogram import OrderSuggestion, pruned_sarimax_grid, suggest_orders
from .grid import (
    CandidateSpec,
    GridResult,
    arima_grid,
    augmentation_specs,
    evaluate_grid,
    sarimax_grid,
)
from .staleness import ModelMonitor, StalenessReason, StalenessVerdict
from .stepwise import StepwiseResult, stepwise_search

__all__ = [
    "AutoConfig",
    "SelectionOutcome",
    "auto_select",
    "auto_select_many",
    "auto_forecast",
    "CandidateSpec",
    "GridResult",
    "arima_grid",
    "sarimax_grid",
    "augmentation_specs",
    "evaluate_grid",
    "OrderSuggestion",
    "suggest_orders",
    "pruned_sarimax_grid",
    "ModelMonitor",
    "StalenessReason",
    "StalenessVerdict",
    "rolling_backtest",
    "BacktestResult",
    "compare_backtests",
    "ResidualDiagnostics",
    "diagnose_residuals",
    "jarque_bera",
    "stepwise_search",
    "StepwiseResult",
]
