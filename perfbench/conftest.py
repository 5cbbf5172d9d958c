import os
import sys

# The benchmark's modules import the package from the checkout's src/.
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))
