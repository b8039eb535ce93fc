"""Exception hierarchy shared by all plainsphere modules."""


class PlainSphereError(Exception):
    """Base class for every error raised by this package."""


class MalformedPD(PlainSphereError):
    """The PD text is not a structurally valid planar diagram code."""


class DisconnectedProjection(PlainSphereError):
    """The underlying 4-valent projection graph is not connected.

    Split diagrams are rejected rather than processed per component:
    the invariants of a split diagram are not determined by the
    components alone, so silently combining them would be misleading.
    """


class ClosedOverComponent(PlainSphereError):
    """Some edges never reach an under-crossing end.

    Such edges form a closed loop that passes over everything it meets,
    so the diagram has no valid strand decomposition with n strands.
    """


class EulerViolation(PlainSphereError):
    """Face tracing did not produce n + 2 faces.

    The counterclockwise slot order of a valid planar diagram code is a
    rotation system whose face count must satisfy Euler's formula on the
    sphere.  Any other count means the code does not describe a diagram
    drawn in S^2 (most often a mistyped tuple).
    """


class ComputeTimeout(PlainSphereError):
    """A search exceeded its cooperative deadline."""


class CertificateError(PlainSphereError):
    """Base class for certificate parsing problems."""


class VersionMismatch(CertificateError):
    """The certificate header names an unsupported format version."""


class SchemaError(CertificateError):
    """The certificate body does not follow the declared format."""


class FileUnreadable(PlainSphereError):
    """An input file could not be opened or decoded."""


class MissingColumns(PlainSphereError):
    """A census CSV lacks one of the required columns."""
