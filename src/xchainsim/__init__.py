"""Cross-chain transaction simulator and verifier.

A deterministic discrete-event world of lockable-contract blockchains
connected by message bridges, an asynchronous notify/ack/remote-call
layer, a two-phase atomic commit protocol across chains, and trace
checkers for message authenticity, atomicity, and strict
serializability.
"""

from .adapter import Adapter, Future
from .bridge import (Ack, Anotify, Bridge, BridgeId, BridgeMessage,
                     BridgePolicy, NotAdversarialBridge, Rcall)
from .chain import (Address, Chain, Contract, InvokeOutcome, MethodFailure,
                    ScenarioError)
from .engine import Injection, StopCondition, World
from .executor import ExecutorContract, ProposerMachine
from .scenario import (Scenario, ValidationError, build_world,
                       bundled_scenarios, load_scenario, parse_scenario)
from .trace import Trace, TraceEvent
from .txn import (CrossChainTransaction, CyclicOrderError, IndexedAction,
                  ideal_execute, layer_partition, scope_union,
                  validate_transaction)
from .verify import (BudgetExceededError, MetricsReport, MissingOutcomeError,
                     Verdict, Violation, check_all_or_nothing,
                     check_secure_transfer, check_strict_serializability,
                     extract_metrics)

__version__ = "0.1.0"
