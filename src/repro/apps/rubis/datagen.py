"""RUBiS data generation.

The paper evaluates two database configurations (section 8):

* an **in-memory** configuration — about 35,000 active auctions, 50,000
  completed auctions and 160,000 registered users (~850 MB), sized so the
  working set fits the database server's buffer cache;
* a **disk-bound** configuration — 225,000 active auctions, 1,000,000
  completed auctions and 1,350,000 users (~6 GB).

Re-creating those row counts in pure Python would make every experiment take
hours without changing the *shape* of any result, so the configurations are
expressed with the paper's proportions and scaled down by a constant factor
(1/100 by default).  The benchmark cost model compensates by charging
disk-configuration queries a higher per-tuple cost (see
:mod:`repro.bench.costmodel`), which preserves the in-memory vs disk-bound
contrast the paper reports.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List

from repro.db.database import Database

__all__ = [
    "RubisConfig",
    "RubisDataset",
    "IN_MEMORY_CONFIG",
    "DISK_BOUND_CONFIG",
    "populate_database",
]

#: Default scale-down factor applied to the paper's row counts.
DEFAULT_SCALE = 100


@dataclass(frozen=True)
class RubisConfig:
    """Sizing of one RUBiS database configuration."""

    name: str
    users: int
    active_items: int
    old_items: int
    categories: int = 20
    regions: int = 62
    bids_per_item: int = 5
    comments_per_user: int = 1
    description_bytes: int = 256
    #: True if the configuration is meant to exceed the buffer cache; the
    #: benchmark cost model charges disk-priced queries for it.
    disk_bound: bool = False

    def scaled(self, scale: int) -> "RubisConfig":
        """Return a copy with the large row counts divided by ``scale``."""
        return RubisConfig(
            name=self.name,
            users=max(50, self.users // scale),
            active_items=max(20, self.active_items // scale),
            old_items=max(20, self.old_items // scale),
            categories=self.categories,
            regions=self.regions,
            bids_per_item=self.bids_per_item,
            comments_per_user=self.comments_per_user,
            description_bytes=self.description_bytes,
            disk_bound=self.disk_bound,
        )


#: The paper's in-memory configuration (pre-scaling).
IN_MEMORY_CONFIG = RubisConfig(
    name="in-memory",
    users=160_000,
    active_items=35_000,
    old_items=50_000,
    disk_bound=False,
)

#: The paper's disk-bound configuration (pre-scaling).
DISK_BOUND_CONFIG = RubisConfig(
    name="disk-bound",
    users=1_350_000,
    active_items=225_000,
    old_items=1_000_000,
    disk_bound=True,
)

_CATEGORY_NAMES = [
    "Antiques", "Art", "Books", "Business", "Clothing", "Coins", "Collectibles",
    "Computers", "Dolls", "Electronics", "Home", "Jewelry", "Movies", "Music",
    "Photo", "Pottery", "Sports", "Stamps", "Tickets", "Toys",
]


@dataclass
class RubisDataset:
    """Identifiers of the generated data, used by the workload generator."""

    config: RubisConfig
    user_ids: List[int] = field(default_factory=list)
    active_item_ids: List[int] = field(default_factory=list)
    old_item_ids: List[int] = field(default_factory=list)
    category_ids: List[int] = field(default_factory=list)
    region_ids: List[int] = field(default_factory=list)
    #: monotonically increasing id allocators for rows created at run time.
    next_item_id: int = 0
    next_bid_id: int = 0
    next_user_id: int = 0
    next_comment_id: int = 0
    next_buy_now_id: int = 0

    def allocate_item_id(self) -> int:
        self.next_item_id += 1
        return self.next_item_id

    def allocate_bid_id(self) -> int:
        self.next_bid_id += 1
        return self.next_bid_id

    def allocate_user_id(self) -> int:
        self.next_user_id += 1
        return self.next_user_id

    def allocate_comment_id(self) -> int:
        self.next_comment_id += 1
        return self.next_comment_id

    def allocate_buy_now_id(self) -> int:
        self.next_buy_now_id += 1
        return self.next_buy_now_id


def populate_database(
    database: Database,
    config: RubisConfig,
    seed: int = 42,
    base_date: float = 0.0,
) -> RubisDataset:
    """Fill ``database`` with a RUBiS dataset matching ``config``.

    Data is bulk-loaded as the initial state (visible at timestamp 0, no
    invalidations), mirroring the paper's practice of restoring a database
    snapshot before each run.  Returns a :class:`RubisDataset` describing the
    generated identifiers.

    Rows stream into their tables: users, completed items, bids and comments
    are generators that ``bulk_load`` draws one row at a time, so a row is
    stored before the next is made.  Only the active items and their
    ``item_cat_reg`` rows are held, because the bids drawn after the
    completed items decide each active item's bid summary.  Every value is
    drawn from ``seed`` in one fixed order: users, active items, completed
    items, bids, comments.
    """
    rng = random.Random(seed)
    dataset = RubisDataset(config=config)

    # Regions and categories -------------------------------------------------
    regions = [
        {"id": region_id, "name": f"Region-{region_id}"}
        for region_id in range(1, config.regions + 1)
    ]
    database.bulk_load("regions", regions)
    dataset.region_ids = [row["id"] for row in regions]

    categories = [
        {
            "id": category_id,
            "name": _CATEGORY_NAMES[(category_id - 1) % len(_CATEGORY_NAMES)]
            + (f"-{category_id}" if category_id > len(_CATEGORY_NAMES) else ""),
        }
        for category_id in range(1, config.categories + 1)
    ]
    database.bulk_load("categories", categories)
    dataset.category_ids = [row["id"] for row in categories]

    # Users ------------------------------------------------------------------
    dataset.user_ids = list(range(1, config.users + 1))
    dataset.next_user_id = config.users
    user_regions = [0]  # user id -> region, in place of the user rows

    def users():
        for user_id in dataset.user_ids:
            row = {
                "id": user_id,
                "firstname": f"First{user_id}",
                "lastname": f"Last{user_id}",
                "nickname": f"user{user_id}",
                "password": f"password{user_id}",
                "email": f"user{user_id}@rubis.example",
                "rating": rng.randint(0, 5),
                "balance": float(rng.randint(0, 1000)),
                "creation_date": base_date - rng.uniform(0, 365 * 86400),
                "region": rng.choice(dataset.region_ids),
            }
            user_regions.append(row["region"])
            yield row

    database.bulk_load("users", users())

    # Items (active and completed) -------------------------------------------
    description_filler = "x" * config.description_bytes
    active_rows, cat_reg_rows = [], []
    for item_id in range(1, config.active_items + 1):
        seller = rng.choice(dataset.user_ids)
        category = rng.choice(dataset.category_ids)
        initial_price = float(rng.randint(1, 500))
        active_rows.append(
            _item_row(
                item_id, seller, category, initial_price, description_filler,
                start=base_date - rng.uniform(0, 7 * 86400),
                end=base_date + rng.uniform(1 * 86400, 7 * 86400),
                rng=rng,
            )
        )
        cat_reg_rows.append({"item_id": item_id, "category": category, "region": user_regions[seller]})
    dataset.active_item_ids = [row["id"] for row in active_rows]
    dataset.old_item_ids = list(
        range(config.active_items + 1, config.active_items + config.old_items + 1)
    )
    dataset.next_item_id = config.active_items + config.old_items

    def old_items():
        for item_id in dataset.old_item_ids:
            seller = rng.choice(dataset.user_ids)
            category = rng.choice(dataset.category_ids)
            initial_price = float(rng.randint(1, 500))
            yield _item_row(
                item_id, seller, category, initial_price, description_filler,
                start=base_date - rng.uniform(30 * 86400, 60 * 86400),
                end=base_date - rng.uniform(1 * 86400, 29 * 86400),
                rng=rng,
            )

    database.bulk_load("old_items", old_items())

    # Bids (drawn before the active items are stored, so that each item's
    # row carries its bid summary) --------------------------------------------
    def bids():
        bid_id = 0
        for row in active_rows:
            count = rng.randint(0, config.bids_per_item * 2)
            price = row["initial_price"]
            for _ in range(count):
                bid_id += 1
                price += float(rng.randint(1, 10))
                yield {
                    "id": bid_id,
                    "user_id": rng.choice(dataset.user_ids),
                    "item_id": row["id"],
                    "qty": 1,
                    "bid": price,
                    "max_bid": price + float(rng.randint(0, 5)),
                    "date": base_date - rng.uniform(0, 86400),
                }
            row["nb_of_bids"] = count
            row["max_bid"] = price if count else None
        dataset.next_bid_id = bid_id

    database.bulk_load("bids", bids())
    database.bulk_load("items", active_rows)
    database.bulk_load("item_cat_reg", cat_reg_rows)
    del active_rows, cat_reg_rows  # stored: not held through the comments

    # Comments ----------------------------------------------------------------
    total_comments = config.users * config.comments_per_user
    # Built once: ``rng.choice`` reads only the list's length and one item.
    item_ids = dataset.active_item_ids + dataset.old_item_ids

    def comments():
        for comment_id in range(1, total_comments + 1):
            yield {
                "id": comment_id,
                "from_user_id": rng.choice(dataset.user_ids),
                "to_user_id": rng.choice(dataset.user_ids),
                "item_id": rng.choice(item_ids),
                "rating": rng.randint(-5, 5),
                "date": base_date - rng.uniform(0, 30 * 86400),
                "comment": "A fine transaction.",
            }

    database.bulk_load("comments", comments())
    dataset.next_comment_id = total_comments

    return dataset


def _item_row(
    item_id: int,
    seller: int,
    category: int,
    initial_price: float,
    description: str,
    start: float,
    end: float,
    rng: random.Random,
) -> Dict[str, object]:
    return {
        "id": item_id,
        "name": f"Item {item_id}",
        "description": description,
        "initial_price": initial_price,
        "quantity": rng.randint(1, 5),
        "reserve_price": initial_price + float(rng.randint(0, 50)),
        "buy_now": initial_price + float(rng.randint(50, 200)),
        "nb_of_bids": 0,
        "max_bid": None,
        "start_date": start,
        "end_date": end,
        "seller": seller,
        "category": category,
    }
