"""Synthetic credit/billing dataset generator with ground truth.

Follows the protocol of Section 6.2:

* populate instances of the (extended) credit/billing schemas with
  realistic person + purchase data;
* add ``duplicate_fraction`` (the paper: 80 %) of duplicates by copying
  existing billing tuples — a duplicate keeps the holder's identity but
  represents e.g. another purchase (like t3–t6 in Fig. 1);
* introduce errors into the duplicates with probability
  ``noise.tuple_rate`` (the paper: 80 %), each identity attribute damaged
  with probability ``noise.attribute_rate``, "ranging from small
  typographical changes to complete change of the attribute";
* keep the truth (which tuples refer to which card holder) so precision,
  recall, pairs completeness and reduction ratio are computable exactly.

The generator is fully deterministic given a seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Tuple

from repro.core.schema import ComparableLists, SchemaPair
from repro.relations.relation import Relation

from . import corpora
from .noise import NoiseModel
from .schemas import extended_pair, extended_target


@dataclass(frozen=True)
class MatchingDataset:
    """A generated instance pair plus the generator-held truth.

    Attributes
    ----------
    pair, target:
        The schema pair and the identification lists ``(Y1, Y2)``.
    credit, billing:
        The generated relations.
    true_matches:
        All (credit tid, billing tid) pairs that refer to the same card
        holder — the ground truth for precision/recall.
    credit_entity, billing_entity:
        Tuple id → holder id maps (useful for debugging and for block
        analyses).
    """

    pair: SchemaPair
    target: ComparableLists
    credit: Relation
    billing: Relation
    true_matches: FrozenSet[Tuple[int, int]]
    credit_entity: Dict[int, int] = field(hash=False)
    billing_entity: Dict[int, int] = field(hash=False)

    @property
    def total_pairs(self) -> int:
        """Size of the full comparison space |credit| × |billing|."""
        return len(self.credit) * len(self.billing)

    def is_true_match(self, credit_tid: int, billing_tid: int) -> bool:
        """Whether the given pair refers to one holder, per the truth."""
        return (credit_tid, billing_tid) in self.true_matches


class _HolderFactory:
    """Draws distinct card holders from the corpora.

    Besides independent holders, the factory can derive *household
    co-members* (same surname, address and home phone — different first
    name, email, card) and *namesakes* (same full name, everything else
    different).  These are distinct real-world entities that overlap on
    exactly the attributes careless matching rules rely on — the classic
    false-positive sources of merge/purge workloads.
    """

    def __init__(self, rng: random.Random) -> None:
        self._rng = rng
        self._used_phones: set = set()
        self._serial = 0

    def _fresh_identifiers(self, first: str, last: str) -> Dict[str, object]:
        rng = self._rng
        self._serial += 1
        email = (
            f"{first[0].lower()}{last.lower()}{self._serial}"
            f"@{rng.choice(corpora.EMAIL_DOMAINS)}"
        )
        return {
            "c#": f"{1000000 + self._serial}",
            "SSN": f"{rng.randrange(10 ** 9):09d}",
            "email": email,
        }

    def _fresh_phone(self) -> str:
        rng = self._rng
        while True:
            tel = f"{rng.randrange(200, 999)}-{rng.randrange(10 ** 7):07d}"
            if tel not in self._used_phones:
                self._used_phones.add(tel)
                return tel

    def make(self) -> Dict[str, object]:
        """An independent card holder."""
        rng = self._rng
        first = rng.choice(corpora.FIRST_NAMES)
        last = rng.choice(corpora.LAST_NAMES)
        city, county, state, zip_prefix = rng.choice(corpora.CITIES)
        street = (
            f"{rng.randrange(1, 999)} "
            f"{rng.choice(corpora.STREET_NAMES)} "
            f"{rng.choice(corpora.STREET_SUFFIXES)}"
        )
        holder = {
            "FN": first,
            "MI": f"{rng.choice('ABCDEFGHJKLMNPRSTW')}.",
            "LN": last,
            "street": street,
            "city": city,
            "county": county,
            "state": state,
            "zip": f"{zip_prefix}{rng.randrange(100):02d}",
            "tel": self._fresh_phone(),
            "gender": rng.choice(("M", "F")),
        }
        holder.update(self._fresh_identifiers(first, last))
        return holder

    def make_household_member(
        self, other: Dict[str, object], share_phone_probability: float = 0.25
    ) -> Dict[str, object]:
        """A different person in the same household as ``other``.

        Shares surname and postal address; shares the phone only with
        ``share_phone_probability`` (landline vs personal line).  Email,
        SSN, card number and gender are their own.
        """
        rng = self._rng
        first = rng.choice(
            [name for name in corpora.FIRST_NAMES if name != other["FN"]]
        )
        member = dict(other)
        member["FN"] = first
        member["MI"] = f"{rng.choice('ABCDEFGHJKLMNPRSTW')}."
        member["gender"] = rng.choice(("M", "F"))
        if rng.random() >= share_phone_probability:
            member["tel"] = self._fresh_phone()
        member.update(self._fresh_identifiers(first, str(other["LN"])))
        return member

    def make_namesake(self, other: Dict[str, object]) -> Dict[str, object]:
        """A different person with the same full name as ``other``.

        Half the namesakes live in the same city (sharing city, county and
        state) — the hard case for name+locality rules.
        """
        rng = self._rng
        namesake = self.make()
        namesake["FN"] = other["FN"]
        namesake["LN"] = other["LN"]
        if rng.random() < 0.5:
            namesake["city"] = other["city"]
            namesake["county"] = other["county"]
            namesake["state"] = other["state"]
        email = (
            f"{str(other['FN'])[0].lower()}{str(other['LN']).lower()}"
            f"{self._serial}@{rng.choice(corpora.EMAIL_DOMAINS)}"
        )
        namesake["email"] = email
        return namesake


def _purchase(rng: random.Random) -> Dict[str, object]:
    item, category, price = rng.choice(corpora.ITEMS)
    return {
        "item": item,
        "category": category,
        "price": f"{price:.2f}",
        "quantity": str(rng.randrange(1, 4)),
        "order_date": (
            f"2008-{rng.randrange(1, 13):02d}-{rng.randrange(1, 29):02d}"
        ),
        "store": rng.choice(corpora.STORES),
        "payment_status": rng.choice(corpora.PAYMENT_STATUSES),
    }


def _weighted_attribute_sample(
    rng: random.Random,
    values: Dict[str, object],
    attributes: List[str],
    count: int,
) -> List[str]:
    """Sample ``count`` distinct attributes, weighted by value length."""
    chosen: List[str] = []
    pool = [attr for attr in attributes if values.get(attr) is not None]
    for _ in range(min(count, len(pool))):
        weights = [len(str(values[attr])) for attr in pool]
        total = sum(weights)
        draw = rng.random() * total
        cumulative = 0.0
        picked = pool[-1]
        for attr, weight in zip(pool, weights):
            cumulative += weight
            if draw < cumulative:
                picked = attr
                break
        chosen.append(picked)
        pool.remove(picked)
    return chosen


def _billing_values(holder: Dict[str, object], purchase: Dict[str, object]) -> Dict[str, object]:
    return {
        "c#": holder["c#"],
        "FN": holder["FN"],
        "MI": holder["MI"],
        "LN": holder["LN"],
        "street": holder["street"],
        "city": holder["city"],
        "county": holder["county"],
        "state": holder["state"],
        "zip": holder["zip"],
        "phn": holder["tel"],
        "email": holder["email"],
        "gender": holder["gender"],
        "ship_state": holder["state"],
        "ship_zip": holder["zip"],
        **purchase,
    }


def generate_dataset(
    size: int,
    duplicate_fraction: float = 0.8,
    noise: Optional[NoiseModel] = None,
    seed: int = 0,
    household_fraction: float = 0.15,
    namesake_fraction: float = 0.05,
    shared_card_probability: float = 0.3,
) -> MatchingDataset:
    """Generate a credit/billing dataset of ``size`` billing tuples.

    Parameters
    ----------
    size:
        The paper's ``K``: the number of billing tuples (and the scale of
        the credit relation — one credit tuple per distinct holder).
    duplicate_fraction:
        Fraction of billing tuples that are noisy duplicates of existing
        ones (the paper: 0.8, i.e. 80 % duplicates were *added*; here the
        fraction is of the final size so K stays exact).
    noise:
        The error model applied to duplicates; defaults to the 80 %
        tuple-rate mixture of :mod:`repro.datagen.noise`.
    seed:
        RNG seed; identical seeds yield identical datasets.
    household_fraction:
        Fraction of holders that are household co-members of another
        holder (same surname/address, different person) — real
        non-matches that stress loose rules.
    namesake_fraction:
        Fraction of holders sharing a full name with another holder.
    shared_card_probability:
        Probability that a purchase by a household member is paid with
        the partner's card (so equal ``c#`` does not imply one person).

    >>> dataset = generate_dataset(200, seed=7)
    >>> len(dataset.billing)
    200
    >>> all(pair in dataset.true_matches
    ...     for pair in list(dataset.true_matches)[:5])
    True
    """
    if size < 2:
        raise ValueError(f"size must be >= 2, got {size}")
    if not 0.0 <= duplicate_fraction < 1.0:
        raise ValueError(
            f"duplicate_fraction must be in [0, 1), got {duplicate_fraction}"
        )
    if household_fraction + namesake_fraction >= 1.0:
        raise ValueError("household + namesake fractions must be < 1")
    if noise is None:
        noise = NoiseModel()
    rng = random.Random(seed)
    pair = extended_pair()
    target = extended_target(pair)

    base_count = max(1, round(size * (1.0 - duplicate_fraction)))
    duplicate_count = size - base_count

    factory = _HolderFactory(rng)
    holders: List[Dict[str, object]] = []
    partner_of: Dict[int, int] = {}
    for index in range(base_count):
        if holders and rng.random() < household_fraction:
            partner_index = rng.randrange(len(holders))
            holders.append(
                factory.make_household_member(holders[partner_index])
            )
            partner_of[index] = partner_index
            partner_of.setdefault(partner_index, index)
        elif holders and rng.random() < namesake_fraction:
            holders.append(factory.make_namesake(rng.choice(holders)))
        else:
            holders.append(factory.make())

    credit = Relation(pair.left)
    billing = Relation(pair.right)
    credit_entity: Dict[int, int] = {}
    billing_entity: Dict[int, int] = {}

    for entity, holder in enumerate(holders):
        credit_tid = credit.insert(holder)
        credit_entity[credit_tid] = entity
        billing_tid = billing.insert(_billing_values(holder, _purchase(rng)))
        billing_entity[billing_tid] = entity

    # Noise targets: the identity attributes (Y2) plus the card number —
    # "more errors were introduced to each attribute in the duplicates".
    identity_attributes = list(target.right_list) + ["c#"]
    for _ in range(duplicate_count):
        entity = rng.randrange(base_count)
        holder = holders[entity]
        # A duplicate is the same holder with a fresh purchase (non-Y
        # attributes change freely) ...
        values = _billing_values(holder, _purchase(rng))
        # Household members sometimes pay with the partner's card: the
        # billing tuple then carries the *partner's* c# but this person's
        # identity — the fraud-check scenario where equal card numbers do
        # not imply one holder.
        partner = partner_of.get(entity)
        if partner is not None and rng.random() < shared_card_probability:
            values["c#"] = holders[partner]["c#"]
        # ... and, for noisy duplicates (tuple_rate of them), a drawn
        # number of identity attributes get damaged.  Longer values are
        # proportionally more likely to be hit — the exact rationale the
        # paper gives for the lt statistic of its quality model ("the
        # longer lt is, the more likely errors occur in the attributes").
        if noise.is_noisy_tuple(rng):
            count = noise.draw_damage_count(rng, len(identity_attributes))
            damaged = _weighted_attribute_sample(
                rng, values, identity_attributes, count
            )
            for attribute in damaged:
                current = values.get(attribute)
                if current is None:
                    continue
                values[attribute] = noise.apply_operator(rng, str(current))
        billing_tid = billing.insert(values)
        billing_entity[billing_tid] = entity

    by_entity: Dict[int, List[int]] = {}
    for billing_tid, entity in billing_entity.items():
        by_entity.setdefault(entity, []).append(billing_tid)
    true_matches = frozenset(
        (credit_tid, billing_tid)
        for credit_tid, entity in credit_entity.items()
        for billing_tid in by_entity.get(entity, ())
    )
    return MatchingDataset(
        pair=pair,
        target=target,
        credit=credit,
        billing=billing,
        true_matches=true_matches,
        credit_entity=credit_entity,
        billing_entity=billing_entity,
    )


def figure1_instances() -> Tuple[SchemaPair, Relation, Relation]:
    """The exact instances of Fig. 1 (Example 1.1), for tests and examples.

    Returns ``(pair, credit, billing)`` over the *example* 9/9-attribute
    schemas; tuple ids follow the paper (t1, t2 → 0, 1 in credit;
    t3–t6 → 0–3 in billing).
    """
    from .schemas import credit_billing_pair

    pair = credit_billing_pair()
    credit = Relation(pair.left)
    credit.insert({
        "c#": "111", "SSN": "079172485", "FN": "Mark", "LN": "Clifford",
        "addr": "10 Oak Street, MH, NJ 07974", "tel": "908-1111111",
        "email": "mc@gm.com", "gender": "M", "type": "master",
    })
    credit.insert({
        "c#": "222", "SSN": "191843658", "FN": "David", "LN": "Smith",
        "addr": "620 Elm Street, MH, NJ 07976", "tel": "908-2222222",
        "email": "dsmith@hm.com", "gender": "M", "type": "visa",
    })
    billing = Relation(pair.right)
    billing.insert({
        "c#": "111", "FN": "Marx", "LN": "Clifford",
        "post": "10 Oak Street, MH, NJ 07974", "phn": "908",
        "email": "mc", "gender": None, "item": "iPod", "price": "169.99",
    })
    billing.insert({
        "c#": "111", "FN": "Marx", "LN": "Clifford", "post": "NJ",
        "phn": "908-1111111", "email": "mc", "gender": None,
        "item": "book", "price": "19.99",
    })
    billing.insert({
        "c#": "111", "FN": "M.", "LN": "Clivord",
        "post": "10 Oak Street, MH, NJ 07974", "phn": "1111111",
        "email": "mc@gm.com", "gender": None, "item": "PSP",
        "price": "269.99",
    })
    billing.insert({
        "c#": "111", "FN": "M.", "LN": "Clivord", "post": "NJ",
        "phn": "908-1111111", "email": "mc@gm.com", "gender": None,
        "item": "CD", "price": "14.99",
    })
    return pair, credit, billing
