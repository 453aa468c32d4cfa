"""The two 30-roll observation paths shipped with the package.

Kept apart from the command line so that importing the package does not
import ``casino_ewac.cli``; ``python -m casino_ewac.cli`` then runs cleanly.
"""

PATH_1 = (3, 5, 1, 2, 5, 4, 6, 3, 5, 2, 4, 3, 6, 4, 1,
          2, 6, 4, 2, 3, 2, 1, 6, 3, 4, 1, 5, 1, 5, 6)
PATH_2 = (6, 5, 6, 4, 1, 3, 5, 1, 2, 2, 6, 3, 4, 5, 5,
          3, 2, 5, 6, 3, 4, 5, 5, 4, 6, 4, 4, 6, 5, 5)

__all__ = ["PATH_1", "PATH_2"]
