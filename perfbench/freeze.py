"""Regenerate the frozen model documents in data/ from psibench's constructors.

    PYTHONPATH=src python3 perfbench/freeze.py

The benchmark never runs this: it reads the frozen files, so a commit under
test and its parent see byte-identical inputs.  The remaining files in data/
are copies of sample_documents/.
"""

from pathlib import Path

from psibench.documents import algebra_to_document, dump_document, presentation_to_document
from psibench.models import (free_polynomial_presentation, product_projective_spaces,
                             projective_space_ring)

DATA = Path(__file__).resolve().parent / "data"

if __name__ == "__main__":
    for name, algebra in (("projective-space-p5-n3", projective_space_ring(5, 3)),
                          ("product-projective-p3-3-3", product_projective_spaces(3, 3, 3)),
                          ("product-projective-p5-3-3", product_projective_spaces(5, 3, 3))):
        dump_document(algebra_to_document(algebra), DATA / f"{name}.json")
    for p, D in ((2, 8), (3, 12)):
        dump_document(presentation_to_document(free_polynomial_presentation(p, D)),
                      DATA / f"polynomial-presentation-p{p}-D{D}.json")
