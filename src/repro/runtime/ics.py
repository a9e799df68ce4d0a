"""The integrity control stack (Sections 5.3–5.5, Figure 5).

The global ICS is distributed: each host keeps a local stack of pairs
``(t, t')`` where ``t`` is the capability the host most recently issued
and ``t'`` is the capability for the rest of the global stack.  A valid
``lgoto(t)`` must present exactly ``top(s_h).t``; the pop invalidates
``t`` forever (capabilities are one-shot).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from .tokens import Token


class LocalStack:
    """One host's slice of the distributed ICS."""

    def __init__(self) -> None:
        self._stack: List[Tuple[Token, Optional[Token]]] = []

    def push(self, issued: Token, previous: Optional[Token]) -> None:
        self._stack.append((issued, previous))

    def top(self) -> Optional[Tuple[Token, Optional[Token]]]:
        return self._stack[-1] if self._stack else None

    def pop_if_top(self, token: Token) -> Optional[Optional[Token]]:
        """Pop and return the saved previous token iff ``token`` is on top.

        Returns None when the token does not match (the request must be
        ignored); the saved token may itself legitimately be None for the
        root capability.
        """
        if not self._stack:
            return None
        issued, previous = self._stack[-1]
        if issued is not token and issued != token:
            return None
        self._stack.pop()
        return (previous,)

    @property
    def depth(self) -> int:
        return len(self._stack)

    def __repr__(self) -> str:
        entries = ", ".join(t.entry for t, _ in self._stack)
        return f"LocalStack([{entries}])"
