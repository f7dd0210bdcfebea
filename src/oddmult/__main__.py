import gc
import sys

from .cli import main

try:
    sys.exit(main())
finally:
    # Teardown's collections skip frozen objects, so the ~21k that numpy and
    # the package leave are neither walked nor freed one by one. After main, so
    # the command's own collections are unchanged; a --csv file is closed by then.
    gc.freeze()
