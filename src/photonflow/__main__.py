"""Run the command-line tool as ``python -m photonflow``."""

from .cli import main

if __name__ == "__main__":
    main()
