"""Reference implementations the tests compare ``src/`` against.

Nothing here is imported by the library.  ``tests/conftest.py`` puts
``tests/`` on ``sys.path``, so test modules import ``oracles.<name>``.
"""
