"""trialforge: harmonize clinical trial registries into one relational corpus,
extract evidence, and generate reasoning benchmarks from it."""

from pathlib import Path

__version__ = "0.1.0"

# The packaged data: vocabulary subsets (vocab/), registry field mappings
# (sources/) and the drug-name and stop-reason keyword tables.
DATA_DIR = Path(__file__).parent / "data"
