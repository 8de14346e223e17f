"""Setup shim for the legacy editable install.

Offline, ``python setup.py develop`` installs the package with setuptools
alone.  ``pip install -e . --no-use-pep517 --no-build-isolation`` takes the
same path but needs the ``wheel`` package installed as well (pip 23 refuses
it otherwise).  All metadata lives in ``pyproject.toml``.
"""

from setuptools import setup

setup()
