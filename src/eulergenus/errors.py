"""Exception types shared across the package."""


class GraphError(ValueError):
    """Malformed digraph, circuit, or decomposition input."""


class EmbeddingError(ValueError):
    """Malformed rotation system or a tracing inconsistency."""


class HypothesisError(RuntimeError):
    """A stated precondition of an operation does not hold for the input."""


class LocalIrreducibilityError(HypothesisError):
    """Some vertex lies on three or more antifaces; ``faces`` holds the
    ascending keys of all the antifaces at ``vertex``."""

    def __init__(self, vertex, faces):
        self.vertex = vertex
        self.faces = tuple(faces)
        super().__init__(
            f"vertex {vertex} lies on {len(self.faces)} antifaces; "
            "operation requires a locally irreducible embedding"
        )


class NoProgressError(RuntimeError):
    """The reduction loop hit its safety bound or a dead end."""

    def __init__(self, message, trace=None):
        self.trace = trace
        super().__init__(message)


class StateSpaceError(RuntimeError):
    """Exhaustive enumeration would exceed the configured state limit."""
