"""Run the command-line front end as ``python -m sortlab``."""

from sortlab.cli import entry

if __name__ == "__main__":
    entry()
