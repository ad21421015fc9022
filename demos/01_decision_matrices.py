"""Walkthrough: ordinal scoring and weighted decision matrices.

Loads the bundled sensor catalog, scores it under the three bundled
profiles, and prints the modality capability grid plus the far- and
near-field decision matrices with requirement gating applied.
"""

from boomsuite import (
    CriterionName,
    bundled_path,
    load_catalog,
    load_profile,
    modality_table,
    score_matrix,
)
from boomsuite.reporting import decision_matrix_table, modality_overview_table

catalog = load_catalog(bundled_path("paper_catalog.yaml"))
print(f"catalog: {len(catalog)} candidate sensors\n")

# First pass: how does each sensing family do, one exemplar per family?
modality_profile = load_profile(bundled_path("modality.profile"))
grid = modality_table(catalog, modality_profile)
print(modality_overview_table(grid, catalog, dict(modality_profile.exemplars), "table",
                              title="Capability grid, one exemplar per modality"))
print()

# Second pass: head-to-head device scoring per stage.  score_matrix also
# gates: a score of 0 on a gating criterion (range, darkness,
# resolution...) lists it in matrix.failing and marks the device
# ineligible, but its weighted sum is still reported.
for name in ("far_field.profile", "near_field.profile"):
    profile = load_profile(bundled_path(name))
    pool = catalog.subset(modalities=profile.modalities)
    matrix = score_matrix(pool, profile)
    print(decision_matrix_table(matrix, pool, "table", title=f"{profile.stage.value} matrix"))
    best = matrix.ranking[0]
    print(f"leader: {pool.get(best).name} at {matrix.weighted_sums[best]}\n")

# The same machinery answers what-if questions: drop the affordability
# weight to zero and the pricier long-range unit takes the lead.
far = load_profile(bundled_path("far_field.profile"))
pool = catalog.subset(modalities=far.modalities)
blind_to_price = score_matrix(pool, far.with_weight(CriterionName.AFFORDABILITY, 0))
print("with affordability weight zeroed:",
      {sid: blind_to_price.weighted_sums[sid] for sid in pool.ids()})
