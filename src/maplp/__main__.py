"""``python -m maplp``: the command line interface of :mod:`maplp.cli`."""

from .cli import main

if __name__ == "__main__":
    main()
