"""The kernel module every layer calls through its `K` alias."""

from . import _kernels_py as kernels


def backend_name():
    """The kernel implementation in use; always "python"."""
    return "python"
