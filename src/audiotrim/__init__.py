"""Structured lottery-ticket trimming of small generative audio networks."""

# registers the three architectures, whichever submodule is imported first
from . import models
