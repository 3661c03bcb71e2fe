"""Investor activity, synchronization-network and volatility-polarization
analytics from per-trade records and daily open/high/low quotes.

The package re-exports nothing: import the module that holds a name (for
example `tradesync.ingest.parse_trades`), so a process loads only the
modules it uses."""

__version__ = "0.1.0"
