"""Entry point for ``python -m sheafconv``."""

from .cli import run

if __name__ == "__main__":
    run()
