"""`python -m isocap ...`: the same command line as the isocap console script."""

from .cli_io import main

if __name__ == "__main__":
    main()
