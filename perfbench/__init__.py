"""perfbench — absolute end-to-end numbers and a per-layer cost budget for the
driver -> controller -> backend -> engine path (see perfbench/README.md).

The package only *calls* the program under ``src/``; it edits nothing there
and claims no gain. ``perfbench/run.py`` is the one entry point.
"""
