"""The package's hot kernels: one pure-Python source, :mod:`kernels`."""


def backend_name() -> str:
    """Name of the kernel implementation; always ``"python"``."""
    return "python"
