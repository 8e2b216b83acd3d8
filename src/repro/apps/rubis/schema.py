"""The RUBiS relational schema.

The schema follows the standard RUBiS layout: regions, categories, users,
active and old (completed) items, bids, buy-now purchases, and comments.
Two details follow the paper's port (section 7.1):

* items are split between ``items`` (active auctions) and ``old_items``
  (completed auctions), so looking up an item may require examining both;
* an extra ``item_cat_reg`` table maps items to their category and the
  seller's region, with indexes on both, replacing the sequential scan +
  join the stock benchmark needed for "browse items by category in region".
"""

from __future__ import annotations

from typing import Dict, List

from repro.db.database import Database
from repro.db.schema import TableSchema

__all__ = ["rubis_schemas", "create_rubis_schema", "ITEM_COLUMNS"]

#: Columns shared by the ``items`` and ``old_items`` tables.
ITEM_COLUMNS = [
    "id",
    "name",
    "description",
    "initial_price",
    "quantity",
    "reserve_price",
    "buy_now",
    "nb_of_bids",
    "max_bid",
    "start_date",
    "end_date",
    "seller",
    "category",
]


def rubis_schemas() -> List[TableSchema]:
    """Return the table schemas making up the RUBiS database."""
    return [
        TableSchema.build(
            "regions",
            ["id", "name"],
            primary_key="id",
            indexes=["name"],
        ),
        TableSchema.build(
            "categories",
            ["id", "name"],
            primary_key="id",
            indexes=["name"],
        ),
        TableSchema.build(
            "users",
            [
                "id",
                "firstname",
                "lastname",
                "nickname",
                "password",
                "email",
                "rating",
                "balance",
                "creation_date",
                "region",
            ],
            primary_key="id",
            indexes=["nickname", "region"],
        ),
        TableSchema.build(
            "items",
            ITEM_COLUMNS,
            primary_key="id",
            indexes=["seller", "category", "end_date"],
        ),
        TableSchema.build(
            "old_items",
            ITEM_COLUMNS,
            primary_key="id",
            indexes=["seller", "category", "end_date"],
        ),
        TableSchema.build(
            "bids",
            ["id", "user_id", "item_id", "qty", "bid", "max_bid", "date"],
            primary_key="id",
            indexes=["user_id", "item_id"],
        ),
        TableSchema.build(
            "buy_now",
            ["id", "buyer_id", "item_id", "qty", "date"],
            primary_key="id",
            indexes=["buyer_id", "item_id"],
        ),
        TableSchema.build(
            "comments",
            ["id", "from_user_id", "to_user_id", "item_id", "rating", "date", "comment"],
            primary_key="id",
            indexes=["from_user_id", "to_user_id", "item_id"],
        ),
        # The paper's added table: category and region of every active item,
        # so region browsing uses index lookups instead of a sequential scan.
        TableSchema.build(
            "item_cat_reg",
            ["item_id", "category", "region"],
            primary_key="item_id",
            indexes=["category", "region"],
        ),
    ]


def create_rubis_schema(database: Database) -> Dict[str, TableSchema]:
    """Create every RUBiS table in ``database``; returns name -> schema."""
    schemas = rubis_schemas()
    for schema in schemas:
        database.create_table(schema)
    return {schema.name: schema for schema in schemas}
