"""Scholarly data layer: schema, synthetic generator, real-format parsers.

The central type is :class:`~repro.data.schema.ScholarlyDataset` — articles,
venues and authors plus the citation relation;
:class:`~repro.data.columns.ArticleColumns` is its array view of per-article
years, venues and authors. Datasets come from three sources:

* :func:`~repro.data.generator.generate_dataset` — synthetic scholarly
  graphs with planted latent quality (the stand-in for AMiner/MAG dumps and
  expert ground truth; see DESIGN.md "Substitutions").
* :func:`~repro.data.aminer.parse_aminer` — the AMiner / DBLP-Citation
  ``#*``/``#index`` text format.
* :func:`~repro.data.mag.parse_mag_directory` — a documented subset of the
  Microsoft Academic Graph TSV layout.
"""

from repro.data.columns import ArticleColumns
from repro.data.generator import GeneratorConfig, generate_dataset
from repro.data.ground_truth import (
    GroundTruth,
    award_list,
    build_ground_truth,
    pairwise_judgments,
)
from repro.data.io import load_dataset_jsonl, save_dataset_jsonl
from repro.data.schema import Article, Author, ScholarlyDataset, Venue

__all__ = [
    "Article",
    "ArticleColumns",
    "Author",
    "Venue",
    "ScholarlyDataset",
    "GeneratorConfig",
    "generate_dataset",
    "GroundTruth",
    "award_list",
    "build_ground_truth",
    "pairwise_judgments",
    "load_dataset_jsonl",
    "save_dataset_jsonl",
]
