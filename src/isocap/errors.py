"""Exception types shared across the package.

Exit-code mapping used by the CLI: InputError / DomainError /
InfeasibleError -> 2 (error kind "input"), SingularMatrixError and numpy's
LinAlgError -> 2 (error kind "numerical"), BudgetError -> 3 (4 is reserved
for a failed inequality check, which is not an exception).
"""


class InputError(ValueError):
    """Malformed or out-of-contract input (unknown ids, bad counts, parse errors)."""


class DomainError(InputError):
    """A domain violating the standing assumptions (disconnected closure etc.)."""


class InfeasibleError(InputError):
    """A constraint set that is empty (overlapping A and B, empty sink)."""


class BudgetError(RuntimeError):
    """An exact enumeration larger than the configured budget."""


class SingularMatrixError(ArithmeticError):
    """A non-positive pivot in a solve that contractually requires SPD input."""
