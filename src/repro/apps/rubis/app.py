"""The RUBiS application layer on top of the TxCache library.

Following the paper's port (section 7.1), results are cached at two
granularities:

* **coarse**: the generated "page" for each read-only interaction (browse
  listings, view an item, a user's profile, bid history, ...), so two clients
  viewing the same page with the same arguments share the previous result;
* **fine**: common helper functions — authenticating a user, looking up a
  user or item by id, computing an item's current price — which can be shared
  across different pages.  Looking up an item examines both the active and
  the completed item tables, so even this "fine-grained" function spans
  multiple queries.

Where a page always makes several independent cacheable calls, it makes
them with one :meth:`TxCacheClient.call_all`, so their lookups share one
round trip per cache node: the home page (categories and regions), both
search pages (an item's listing price; the region search also fetches its
items that way), view item (price, bid count and seller), bid history (the
bidders), buy now, put bid and put comment (the item and the user, and put
bid's price), and about me (the items bid on and the listing prices).

Read/write interactions (registering users and items, placing bids, buy-now
purchases, storing comments) bypass the cache and run directly against the
database inside ``BEGIN-RW`` transactions.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.apps.rubis.datagen import RubisDataset
from repro.core.api import TxCacheClient
from repro.db.query import Aggregate, And, Eq, Select

__all__ = ["RubisApp"]

#: Number of items displayed per browse/search page.
PAGE_SIZE = 20


class RubisApp:
    """One application-server instance of the RUBiS auction site."""

    def __init__(self, client: TxCacheClient, dataset: RubisDataset) -> None:
        self.client = client
        self.dataset = dataset
        cacheable = client.make_cacheable
        # Fine-grained cacheable functions (shared across pages).
        self.get_region = cacheable(self._get_region, name="rubis.get_region")
        self.get_category = cacheable(self._get_category, name="rubis.get_category")
        self.get_regions = cacheable(self._get_regions, name="rubis.get_regions")
        self.get_categories = cacheable(self._get_categories, name="rubis.get_categories")
        self.get_user = cacheable(self._get_user, name="rubis.get_user")
        self.get_user_by_nickname = cacheable(
            self._get_user_by_nickname, name="rubis.get_user_by_nickname"
        )
        self.authenticate = cacheable(self._authenticate, name="rubis.authenticate")
        self.get_item = cacheable(self._get_item, name="rubis.get_item")
        self.get_item_current_price = cacheable(
            self._get_item_current_price, name="rubis.get_item_current_price"
        )
        self.get_item_bid_count = cacheable(
            self._get_item_bid_count, name="rubis.get_item_bid_count"
        )
        self.get_user_comments = cacheable(
            self._get_user_comments, name="rubis.get_user_comments"
        )
        # Coarse-grained cacheable functions (whole page bodies).
        self.home_page = cacheable(self._home_page, name="rubis.page.home")
        self.browse_categories_page = cacheable(
            self._browse_categories_page, name="rubis.page.browse_categories"
        )
        self.browse_regions_page = cacheable(
            self._browse_regions_page, name="rubis.page.browse_regions"
        )
        self.search_items_by_category_page = cacheable(
            self._search_items_by_category_page, name="rubis.page.search_by_category"
        )
        self.search_items_by_region_page = cacheable(
            self._search_items_by_region_page, name="rubis.page.search_by_region"
        )
        self.view_item_page = cacheable(self._view_item_page, name="rubis.page.view_item")
        self.view_user_page = cacheable(self._view_user_page, name="rubis.page.view_user")
        self.view_bid_history_page = cacheable(
            self._view_bid_history_page, name="rubis.page.bid_history"
        )
        self.buy_now_page = cacheable(self._buy_now_page, name="rubis.page.buy_now")
        self.put_bid_page = cacheable(self._put_bid_page, name="rubis.page.put_bid")
        self.put_comment_page = cacheable(
            self._put_comment_page, name="rubis.page.put_comment"
        )
        self.sell_item_form_page = cacheable(
            self._sell_item_form_page, name="rubis.page.sell_item_form"
        )
        self.about_me_page = cacheable(self._about_me_page, name="rubis.page.about_me")

    # ==================================================================
    # Fine-grained cacheable function implementations
    # ==================================================================
    def _get_region(self, region_id: int) -> Optional[Dict[str, Any]]:
        rows = self.client.query(Select("regions", Eq("id", region_id))).rows
        return rows[0] if rows else None

    def _get_category(self, category_id: int) -> Optional[Dict[str, Any]]:
        rows = self.client.query(Select("categories", Eq("id", category_id))).rows
        return rows[0] if rows else None

    def _get_regions(self) -> List[Dict[str, Any]]:
        return self.client.query(Select("regions", order_by="id")).rows

    def _get_categories(self) -> List[Dict[str, Any]]:
        return self.client.query(Select("categories", order_by="id")).rows

    def _get_user(self, user_id: int) -> Optional[Dict[str, Any]]:
        rows = self.client.query(Select("users", Eq("id", user_id))).rows
        return rows[0] if rows else None

    def _get_user_by_nickname(self, nickname: str) -> Optional[Dict[str, Any]]:
        rows = self.client.query(Select("users", Eq("nickname", nickname))).rows
        return rows[0] if rows else None

    def _authenticate(self, nickname: str, password: str) -> Optional[int]:
        """Return the user id if the credentials are valid."""
        rows = self.client.query(Select("users", Eq("nickname", nickname))).rows
        if rows and rows[0]["password"] == password:
            return rows[0]["id"]
        return None

    def _get_item(self, item_id: int) -> Optional[Dict[str, Any]]:
        """Look up an item in the active table, falling back to old items."""
        rows = self.client.query(Select("items", Eq("id", item_id))).rows
        if rows:
            item = dict(rows[0])
            item["closed"] = False
            return item
        rows = self.client.query(Select("old_items", Eq("id", item_id))).rows
        if rows:
            item = dict(rows[0])
            item["closed"] = True
            return item
        return None

    def _get_item_current_price(self, item_id: int) -> Optional[float]:
        result = self.client.query(
            Aggregate(Select("bids", Eq("item_id", item_id)), "max", "bid")
        )
        max_bid = result.scalar()
        if max_bid is not None:
            return max_bid
        item = self.get_item(item_id)
        return item["initial_price"] if item else None

    def _get_item_bid_count(self, item_id: int) -> int:
        result = self.client.query(
            Aggregate(Select("bids", Eq("item_id", item_id)), "count")
        )
        return result.scalar()

    def _get_user_comments(self, user_id: int) -> List[Dict[str, Any]]:
        return self.client.query(
            Select("comments", Eq("to_user_id", user_id), order_by="date", descending=True)
        ).rows

    # ==================================================================
    # Coarse-grained page implementations (read-only interactions)
    # ==================================================================
    def _home_page(self) -> Dict[str, Any]:
        categories, regions = self.client.call_all(
            [(self.get_categories, ()), (self.get_regions, ())]
        )
        return {
            "title": "RUBiS auction site",
            "category_count": len(categories),
            "region_count": len(regions),
            "html": _render("home", categories=len(categories), regions=len(regions)),
        }

    def _browse_categories_page(self) -> Dict[str, Any]:
        categories = self.get_categories()
        return {
            "categories": categories,
            "html": _render("browse_categories", names=[c["name"] for c in categories]),
        }

    def _browse_regions_page(self) -> Dict[str, Any]:
        regions = self.get_regions()
        return {
            "regions": regions,
            "html": _render("browse_regions", names=[r["name"] for r in regions]),
        }

    def _search_items_by_category_page(self, category_id: int, page: int = 0) -> Dict[str, Any]:
        items = self.client.query(
            Select(
                "items",
                Eq("category", category_id),
                order_by="end_date",
                limit=PAGE_SIZE * (page + 1),
            )
        ).rows
        items = items[page * PAGE_SIZE : (page + 1) * PAGE_SIZE]
        listings = self._listings_for(items)
        return {
            "category": category_id,
            "page": page,
            "listings": listings,
            "html": _render("search_category", category=category_id, count=len(listings)),
        }

    def _search_items_by_region_page(
        self, category_id: int, region_id: int, page: int = 0
    ) -> Dict[str, Any]:
        # Uses the item_cat_reg table the paper added, so this is an index
        # lookup rather than a scan+join over every active auction.
        mappings = self.client.query(
            Select("item_cat_reg", And(Eq("region", region_id), Eq("category", category_id)))
        ).rows
        item_ids = [m["item_id"] for m in mappings]
        item_ids = item_ids[page * PAGE_SIZE : (page + 1) * PAGE_SIZE]
        items = self.client.call_all([(self.get_item, (item_id,)) for item_id in item_ids])
        listings = self._listings_for(
            [item for item in items if item is not None and not item["closed"]]
        )
        return {
            "category": category_id,
            "region": region_id,
            "page": page,
            "listings": listings,
            "html": _render(
                "search_region", category=category_id, region=region_id, count=len(listings)
            ),
        }

    def _view_item_page(self, item_id: int) -> Dict[str, Any]:
        item = self.get_item(item_id)
        if item is None:
            return {"error": "item not found", "item_id": item_id, "html": _render("missing")}
        price, bid_count, seller = self.client.call_all(
            [
                (self.get_item_current_price, (item_id,)),
                (self.get_item_bid_count, (item_id,)),
                (self.get_user, (item["seller"],)),
            ]
        )
        return {
            "item": item,
            "price": price,
            "bid_count": bid_count,
            "seller_nickname": seller["nickname"] if seller else None,
            "html": _render("view_item", item=item["name"], price=price, bids=bid_count),
        }

    def _view_user_page(self, user_id: int) -> Dict[str, Any]:
        user = self.get_user(user_id)
        if user is None:
            return {"error": "user not found", "user_id": user_id, "html": _render("missing")}
        comments = self.get_user_comments(user_id)
        return {
            "user": user,
            "comments": comments,
            "rating": user["rating"],
            "html": _render("view_user", nickname=user["nickname"], comments=len(comments)),
        }

    def _view_bid_history_page(self, item_id: int) -> Dict[str, Any]:
        item = self.get_item(item_id)
        bids = self.client.query(
            Select("bids", Eq("item_id", item_id), order_by="bid", descending=True)
        ).rows
        bidders = self.client.call_all([(self.get_user, (bid["user_id"],)) for bid in bids])
        entries = [
            {
                "bid": bid["bid"],
                "qty": bid["qty"],
                "bidder": bidder["nickname"] if bidder else None,
                "date": bid["date"],
            }
            for bid, bidder in zip(bids, bidders)
        ]
        return {
            "item": item["name"] if item else None,
            "bids": entries,
            "html": _render("bid_history", item=item_id, count=len(entries)),
        }

    def _buy_now_page(self, item_id: int, user_id: int) -> Dict[str, Any]:
        item, user = self.client.call_all(
            [(self.get_item, (item_id,)), (self.get_user, (user_id,))]
        )
        return {
            "item": item,
            "buyer": user["nickname"] if user else None,
            "html": _render("buy_now", item=item_id),
        }

    def _put_bid_page(self, item_id: int, user_id: int) -> Dict[str, Any]:
        item, price, user = self.client.call_all(
            [
                (self.get_item, (item_id,)),
                (self.get_item_current_price, (item_id,)),
                (self.get_user, (user_id,)),
            ]
        )
        return {
            "item": item,
            "current_price": price,
            "bidder": user["nickname"] if user else None,
            "html": _render("put_bid", item=item_id, price=price),
        }

    def _put_comment_page(self, item_id: int, to_user_id: int) -> Dict[str, Any]:
        item, user = self.client.call_all(
            [(self.get_item, (item_id,)), (self.get_user, (to_user_id,))]
        )
        return {
            "item": item,
            "to_user": user["nickname"] if user else None,
            "html": _render("put_comment", item=item_id, user=to_user_id),
        }

    def _sell_item_form_page(self, category_id: int) -> Dict[str, Any]:
        category = self.get_category(category_id)
        return {
            "category": category,
            "html": _render("sell_item_form", category=category_id),
        }

    def _about_me_page(self, user_id: int) -> Dict[str, Any]:
        user = self.get_user(user_id)
        if user is None:
            return {"error": "user not found", "user_id": user_id, "html": _render("missing")}
        selling = self.client.query(Select("items", Eq("seller", user_id))).rows
        sold = self.client.query(Select("old_items", Eq("seller", user_id))).rows
        bids = self.client.query(Select("bids", Eq("user_id", user_id))).rows
        items = self.client.call_all(
            [(self.get_item, (bid["item_id"],)) for bid in bids[:PAGE_SIZE]]
        )
        bid_items = self._listings_for([item for item in items if item is not None])
        bought = self.client.query(Select("buy_now", Eq("buyer_id", user_id))).rows
        comments = self.get_user_comments(user_id)
        listings = self._listings_for(selling + sold)
        return {
            "user": user,
            "selling": listings[: len(selling)],
            "sold": listings[len(selling) :],
            "bid_items": bid_items,
            "bought": bought,
            "comments": comments,
            "html": _render(
                "about_me",
                nickname=user["nickname"],
                selling=len(selling),
                sold=len(sold),
                bids=len(bids),
            ),
        }

    # ==================================================================
    # Read-only interaction entry points (each runs one RO transaction)
    # ==================================================================
    def run_read_only(self, page_function, *args, staleness: Optional[float] = None):
        """Run one coarse page function inside a read-only transaction."""
        with self.client.read_only(staleness):
            return page_function(*args)

    # ==================================================================
    # Read/write interactions (bypass the cache)
    # ==================================================================
    def register_user(
        self, nickname: str, password: str, region_id: int, now: float
    ) -> int:
        """RegisterUser: create a new account, returns the new user id."""
        user_id = self.dataset.allocate_user_id()
        with self.client.read_write():
            self.client.insert(
                "users",
                {
                    "id": user_id,
                    "firstname": f"First{user_id}",
                    "lastname": f"Last{user_id}",
                    "nickname": nickname,
                    "password": password,
                    "email": f"{nickname}@rubis.example",
                    "rating": 0,
                    "balance": 0.0,
                    "creation_date": now,
                    "region": region_id,
                },
            )
        self.dataset.user_ids.append(user_id)
        return user_id

    def register_item(
        self,
        seller_id: int,
        category_id: int,
        name: str,
        initial_price: float,
        now: float,
        duration: float = 7 * 86400,
    ) -> int:
        """RegisterItem: put a new item up for auction."""
        item_id = self.dataset.allocate_item_id()
        with self.client.read_write():
            seller_rows = self.client.query(Select("users", Eq("id", seller_id))).rows
            region = seller_rows[0]["region"] if seller_rows else None
            self.client.insert(
                "items",
                {
                    "id": item_id,
                    "name": name,
                    "description": "freshly listed",
                    "initial_price": initial_price,
                    "quantity": 1,
                    "reserve_price": initial_price,
                    "buy_now": initial_price * 2,
                    "nb_of_bids": 0,
                    "max_bid": None,
                    "start_date": now,
                    "end_date": now + duration,
                    "seller": seller_id,
                    "category": category_id,
                },
            )
            self.client.insert(
                "item_cat_reg",
                {"item_id": item_id, "category": category_id, "region": region},
            )
        self.dataset.active_item_ids.append(item_id)
        return item_id

    def store_bid(self, user_id: int, item_id: int, amount: float, now: float) -> int:
        """StoreBid: record a bid and update the item's bid summary."""
        bid_id = self.dataset.allocate_bid_id()
        with self.client.read_write():
            item_rows = self.client.query(Select("items", Eq("id", item_id))).rows
            self.client.insert(
                "bids",
                {
                    "id": bid_id,
                    "user_id": user_id,
                    "item_id": item_id,
                    "qty": 1,
                    "bid": amount,
                    "max_bid": amount,
                    "date": now,
                },
            )
            if item_rows:
                item = item_rows[0]
                new_max = amount if item["max_bid"] is None else max(item["max_bid"], amount)
                self.client.update(
                    "items",
                    Eq("id", item_id),
                    {"nb_of_bids": item["nb_of_bids"] + 1, "max_bid": new_max},
                )
        return bid_id

    def store_buy_now(self, user_id: int, item_id: int, now: float) -> int:
        """StoreBuyNow: record an outright purchase and reduce the quantity."""
        buy_id = self.dataset.allocate_buy_now_id()
        with self.client.read_write():
            item_rows = self.client.query(Select("items", Eq("id", item_id))).rows
            self.client.insert(
                "buy_now",
                {"id": buy_id, "buyer_id": user_id, "item_id": item_id, "qty": 1, "date": now},
            )
            if item_rows:
                remaining = max(0, item_rows[0]["quantity"] - 1)
                self.client.update("items", Eq("id", item_id), {"quantity": remaining})
        return buy_id

    def store_comment(
        self, from_user_id: int, to_user_id: int, item_id: int, rating: int, text: str, now: float
    ) -> int:
        """StoreComment: leave feedback and adjust the target's rating."""
        comment_id = self.dataset.allocate_comment_id()
        with self.client.read_write():
            self.client.insert(
                "comments",
                {
                    "id": comment_id,
                    "from_user_id": from_user_id,
                    "to_user_id": to_user_id,
                    "item_id": item_id,
                    "rating": rating,
                    "date": now,
                    "comment": text,
                },
            )
            user_rows = self.client.query(Select("users", Eq("id", to_user_id))).rows
            if user_rows:
                self.client.update(
                    "users", Eq("id", to_user_id), {"rating": user_rows[0]["rating"] + rating}
                )
        return comment_id

    # ==================================================================
    # Helpers
    # ==================================================================
    def _listings_for(self, items: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
        """Compact listing entries, priced by the fine-grained price function
        in one batch."""
        prices = self.client.call_all(
            [(self.get_item_current_price, (item["id"],)) for item in items]
        )
        return [
            {
                "id": item["id"],
                "name": item["name"],
                "price": price,
                "end_date": item["end_date"],
            }
            for item, price in zip(items, prices)
        ]


def _render(template: str, **values: Any) -> str:
    """A stand-in for the PHP templating work: produce an HTML-ish string.

    Real RUBiS spends part of its time formatting HTML; representing the
    output as a string keeps cached values realistically sized and gives the
    web-server cost model something to account for.
    """
    body = " ".join(f'{key}="{value}"' for key, value in sorted(values.items()))
    return f"<page template={template!r} {body}>"
