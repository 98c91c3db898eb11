"""Exception types raised by fieldtopo."""


class FieldTopoError(Exception):
    """Base class for all fieldtopo errors."""


class NonManifoldFace(FieldTopoError):
    """A triangular face is shared by more than two tetrahedra."""


class DegenerateTet(FieldTopoError):
    """A tetrahedron has (near-)zero volume."""


class OpenBoundary(FieldTopoError):
    """Boundary faces do not close up into a surface."""


class InvalidComplex(FieldTopoError):
    """The complex fails a structural check of ``validate_complex``."""


class RingTouchesBoundary(FieldTopoError):
    """Ring cells touch the outer wall of the box."""


class ParseError(FieldTopoError):
    """Malformed mesh file; carries the offending line number."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class EmptyMesh(FieldTopoError):
    """Mesh file contains no tetrahedra."""


class TrivialH1(FieldTopoError):
    """First cohomology is trivial; no generators to extract."""


class SolverFailure(FieldTopoError):
    """Linear solve did not reach the required residual."""


class NonRegularLevel(FieldTopoError):
    """Level passes too close to a vertex phase."""


class NoGap(FieldTopoError):
    """Vertex phases are too dense to pick a regular level."""


class NonManifoldCut(FieldTopoError):
    """Extracted surface violates the shared-edge invariant."""


class IncompatibleBC(FieldTopoError):
    """Boundary condition is incompatible with the mesh."""


class NoConvergence(FieldTopoError):
    """An iterative solve did not converge, or the eigensolver found fewer
    pairs than requested."""


class EmptySupport(FieldTopoError):
    """Field support is empty at the given threshold."""


class SingularGeometry(FieldTopoError):
    """Tetrahedron Jacobian is singular."""
