"""The canonical definite discriminants as polynomials, one at a time: the
oracle of the coefficient rows that the sweeps feed their class batches
(`verify._canonical_rows`)."""

from fqforms.classify import canonical_disc_count


def canonical_disc_at(field, m, index):
    """The canonical definite discriminant of degree m at `index` in
    `canonical_discs` order: by leading coefficient, 1 before delta (delta
    alone at even m), then by the key of the lower part."""
    if m == 0:
        return field.poly((field.delta,))
    leads = (1, field.delta) if m % 2 else (field.delta,)
    lead, low = divmod(index, field.q**m)
    return field.poly_from_key(low + leads[lead] * field.q**m)


def canonical_discs(field, max_degree):
    """Canonical definite discriminants, ascending by (degree, key)."""
    return [
        canonical_disc_at(field, m, index)
        for m in range(max_degree + 1)
        for index in range(canonical_disc_count(field, m))
    ]
