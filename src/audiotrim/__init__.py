"""Structured lottery-ticket trimming of small generative audio networks."""
