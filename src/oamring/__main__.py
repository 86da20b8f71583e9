"""`python -m oamring`: the `oamring` command from a source checkout."""
from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
