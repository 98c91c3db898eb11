"""fieldtopo: topology and spectra of magnetic fields on tetrahedral meshes.

Nothing is imported here, so the CLI can pin thread environment variables
before numpy loads.
"""

__version__ = "0.1.0"
