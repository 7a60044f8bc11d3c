from .cli import main

__all__ = ["main"]
if __name__ == "__main__":  # ``python -m spectriple <subcommand> ...``
    raise SystemExit(main())
