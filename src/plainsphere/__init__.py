"""Exact Wirtinger and plain-sphere numbers of link diagrams.

The Wirtinger number of a diagram is the fewest strands that must be
seeded so that Wirtinger moves alone color every strand; the
plain-sphere number allows loop moves as well.  Both are computed
exactly by saturation over exhaustively enumerated seed sets, and every
answer ships with a replayable certificate.
"""

__version__ = "1.0.0"

from .certificate import (PLAINSPHERE, WIRTINGER, Certificate, Move,
                          VerifyResult, deserialize_certificate,
                          serialize_certificate, verify)
from .diagram import Diagram, parse_pd
from .dual import DualGraph, build_dual
from .engine import omega, rho, saturate
from .errors import (CertificateError, ClosedOverComponent, ComputeTimeout,
                     DisconnectedProjection, EulerViolation, FileUnreadable,
                     MalformedPD, MissingColumns, PlainSphereError,
                     SchemaError, VersionMismatch)

__all__ = [
    "Certificate", "CertificateError", "ClosedOverComponent",
    "ComputeTimeout", "Diagram",
    "DisconnectedProjection", "DualGraph", "EulerViolation",
    "FileUnreadable", "MalformedPD", "MissingColumns", "Move",
    "PLAINSPHERE", "PlainSphereError", "SchemaError", "VerifyResult",
    "VersionMismatch", "WIRTINGER", "build_dual",
    "deserialize_certificate", "omega", "parse_pd", "rho", "saturate",
    "serialize_certificate", "verify",
]
