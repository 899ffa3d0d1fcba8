"""Shared helpers for the fleet suite."""

import hashlib
import os

from repro.chaos import fleet_determinism_fingerprint


def fingerprint_digest(result):
    """sha256 of a campaign result's determinism fingerprint."""
    fingerprint = repr(fleet_determinism_fingerprint(result))
    return hashlib.sha256(fingerprint.encode()).hexdigest()


def assert_pinned_fingerprint(result, digest):
    """The campaign reproduces the pinned fingerprint digest exactly.

    Skipped when any ``COPIER_*`` knob is set: the soak jobs arm fault
    plans, link plans and the end-to-end CRC, all of which legitimately
    change the campaign.  Run-to-run determinism is still asserted by
    each caller under those knobs.
    """
    if any(name.startswith("COPIER_") for name in os.environ):
        return
    assert fingerprint_digest(result) == digest
