"""Tests for the RUBiS application: schema, data generation, app logic."""

from __future__ import annotations

import pytest

from repro.apps.rubis.app import RubisApp
from repro.apps.rubis.datagen import (
    DISK_BOUND_CONFIG,
    IN_MEMORY_CONFIG,
    RubisConfig,
    populate_database,
)
from repro.apps.rubis.schema import create_rubis_schema, rubis_schemas
from repro.deployment import TxCacheDeployment


@pytest.fixture(scope="module")
def rubis():
    """A small RUBiS deployment shared by the read-only tests in this module."""
    deployment = TxCacheDeployment(cache_capacity_bytes_per_node=4 * 1024 * 1024)
    create_rubis_schema(deployment.database)
    dataset = populate_database(deployment.database, IN_MEMORY_CONFIG.scaled(400), seed=7)
    client = deployment.client()
    app = RubisApp(client, dataset)
    return deployment, app, dataset


class TestSchema:
    def test_all_tables_created(self):
        deployment = TxCacheDeployment()
        schemas = create_rubis_schema(deployment.database)
        assert set(schemas) == {
            "regions",
            "categories",
            "users",
            "items",
            "old_items",
            "bids",
            "buy_now",
            "comments",
            "item_cat_reg",
        }

    def test_expected_indexes_exist(self):
        deployment = TxCacheDeployment()
        create_rubis_schema(deployment.database)
        items = deployment.database.table("items")
        assert items.has_index_on("seller")
        assert items.has_index_on("category")
        assert items.has_index_on("end_date")
        users = deployment.database.table("users")
        assert users.has_index_on("nickname")
        cat_reg = deployment.database.table("item_cat_reg")
        assert cat_reg.has_index_on("region")
        assert cat_reg.has_index_on("category")

    def test_schema_list_is_stable(self):
        assert len(rubis_schemas()) == 9


class TestDataGeneration:
    def test_paper_configurations_have_paper_proportions(self):
        assert IN_MEMORY_CONFIG.users == 160_000
        assert IN_MEMORY_CONFIG.active_items == 35_000
        assert IN_MEMORY_CONFIG.old_items == 50_000
        assert DISK_BOUND_CONFIG.users == 1_350_000
        assert DISK_BOUND_CONFIG.disk_bound

    def test_scaling_preserves_ratios_roughly(self):
        scaled = IN_MEMORY_CONFIG.scaled(100)
        assert scaled.users == 1600
        assert scaled.active_items == 350
        assert scaled.old_items == 500
        assert not scaled.disk_bound

    def test_scaling_has_floors(self):
        tiny = RubisConfig(name="t", users=10, active_items=5, old_items=3).scaled(1000)
        assert tiny.users >= 50
        assert tiny.active_items >= 20

    def test_populate_loads_expected_row_counts(self, rubis):
        deployment, _app, dataset = rubis
        database = deployment.database
        config = dataset.config
        assert database.table("users").row_count() == config.users
        assert database.table("items").row_count() == config.active_items
        assert database.table("old_items").row_count() == config.old_items
        assert database.table("regions").row_count() == config.regions
        assert database.table("categories").row_count() == config.categories
        assert database.table("item_cat_reg").row_count() == config.active_items

    def test_item_bid_summaries_match_bid_table(self, rubis):
        deployment, _app, dataset = rubis
        from repro.db.query import Eq, Select

        ro = deployment.database.begin_ro()
        item = ro.query(Select("items", Eq("id", dataset.active_item_ids[0]))).rows[0]
        bids = ro.query(Select("bids", Eq("item_id", item["id"]))).rows
        assert item["nb_of_bids"] == len(bids)
        if bids:
            assert item["max_bid"] == pytest.approx(max(b["bid"] for b in bids))

    def test_generation_is_deterministic(self):
        first = TxCacheDeployment()
        second = TxCacheDeployment()
        create_rubis_schema(first.database)
        create_rubis_schema(second.database)
        config = IN_MEMORY_CONFIG.scaled(800)
        populate_database(first.database, config, seed=3)
        populate_database(second.database, config, seed=3)
        from repro.db.query import Eq, Select

        a = first.database.begin_ro().query(Select("users", Eq("id", 5))).rows
        b = second.database.begin_ro().query(Select("users", Eq("id", 5))).rows
        assert a == b


class TestApplicationPages:
    def test_home_and_browse_pages(self, rubis):
        _dep, app, _dataset = rubis
        home = app.run_read_only(app.home_page)
        assert home["category_count"] == 20
        categories = app.run_read_only(app.browse_categories_page)
        assert len(categories["categories"]) == 20
        regions = app.run_read_only(app.browse_regions_page)
        assert len(regions["regions"]) == 62

    def test_view_item_page(self, rubis):
        _dep, app, dataset = rubis
        item_id = dataset.active_item_ids[0]
        page = app.run_read_only(app.view_item_page, item_id)
        assert page["item"]["id"] == item_id
        assert page["price"] is not None
        assert page["seller_nickname"].startswith("user")

    def test_view_item_page_missing_item(self, rubis):
        _dep, app, _dataset = rubis
        page = app.run_read_only(app.view_item_page, 10**9)
        assert "error" in page

    def test_old_items_found_by_get_item(self, rubis):
        _dep, app, dataset = rubis
        with app.client.read_only():
            item = app.get_item(dataset.old_item_ids[0])
        assert item["closed"] is True

    def test_search_by_category(self, rubis):
        _dep, app, dataset = rubis
        page = app.run_read_only(app.search_items_by_category_page, dataset.category_ids[0], 0)
        for listing in page["listings"]:
            assert set(listing) == {"id", "name", "price", "end_date"}

    def test_search_by_region_uses_added_table(self, rubis):
        _dep, app, dataset = rubis
        page = app.run_read_only(
            app.search_items_by_region_page, dataset.category_ids[0], dataset.region_ids[0], 0
        )
        assert isinstance(page["listings"], list)

    def test_bid_history_and_user_pages(self, rubis):
        _dep, app, dataset = rubis
        item_id = dataset.active_item_ids[1]
        history = app.run_read_only(app.view_bid_history_page, item_id)
        assert isinstance(history["bids"], list)
        user_page = app.run_read_only(app.view_user_page, dataset.user_ids[0])
        assert user_page["user"]["id"] == dataset.user_ids[0]

    def test_about_me_page(self, rubis):
        _dep, app, dataset = rubis
        page = app.run_read_only(app.about_me_page, dataset.user_ids[0])
        assert "selling" in page and "bought" in page and "comments" in page

    def test_authentication(self, rubis):
        _dep, app, dataset = rubis
        user_id = dataset.user_ids[0]
        with app.client.read_only():
            assert app.authenticate(f"user{user_id}", f"password{user_id}") == user_id
            assert app.authenticate(f"user{user_id}", "wrong") is None


class TestWriteInteractions:
    @pytest.fixture()
    def fresh_rubis(self):
        deployment = TxCacheDeployment(cache_capacity_bytes_per_node=4 * 1024 * 1024)
        create_rubis_schema(deployment.database)
        dataset = populate_database(deployment.database, IN_MEMORY_CONFIG.scaled(800), seed=9)
        app = RubisApp(deployment.client(), dataset)
        return deployment, app, dataset

    def test_register_user(self, fresh_rubis):
        deployment, app, dataset = fresh_rubis
        new_id = app.register_user("brand_new", "secret", dataset.region_ids[0], now=1.0)
        deployment.advance(0.1)
        with app.client.read_only(staleness=0):
            user = app.get_user_by_nickname("brand_new")
        assert user["id"] == new_id

    def test_register_item_populates_cat_reg(self, fresh_rubis):
        deployment, app, dataset = fresh_rubis
        seller = dataset.user_ids[0]
        item_id = app.register_item(seller, dataset.category_ids[0], "Shiny", 10.0, now=1.0)
        from repro.db.query import Eq, Select

        ro = deployment.database.begin_ro()
        assert len(ro.query(Select("item_cat_reg", Eq("item_id", item_id))).rows) == 1

    def test_store_bid_updates_item_and_invalidate_page(self, fresh_rubis):
        deployment, app, dataset = fresh_rubis
        item_id = dataset.active_item_ids[0]
        page_before = app.run_read_only(app.view_item_page, item_id)
        app.store_bid(dataset.user_ids[0], item_id, amount=10_000.0, now=2.0)
        deployment.advance(0.1)
        page_after = app.run_read_only(app.view_item_page, item_id, staleness=0)
        assert page_after["bid_count"] == page_before["bid_count"] + 1
        assert page_after["price"] == 10_000.0

    def test_store_buy_now_decrements_quantity(self, fresh_rubis):
        deployment, app, dataset = fresh_rubis
        item_id = dataset.active_item_ids[2]
        from repro.db.query import Eq, Select

        before = deployment.database.begin_ro().query(Select("items", Eq("id", item_id))).rows[0]
        app.store_buy_now(dataset.user_ids[1], item_id, now=3.0)
        after = deployment.database.begin_ro().query(Select("items", Eq("id", item_id))).rows[0]
        assert after["quantity"] == max(0, before["quantity"] - 1)

    def test_store_comment_adjusts_rating(self, fresh_rubis):
        deployment, app, dataset = fresh_rubis
        target = dataset.user_ids[3]
        from repro.db.query import Eq, Select

        before = deployment.database.begin_ro().query(Select("users", Eq("id", target))).rows[0]
        app.store_comment(dataset.user_ids[0], target, dataset.active_item_ids[0], 4, "great", 5.0)
        after = deployment.database.begin_ro().query(Select("users", Eq("id", target))).rows[0]
        assert after["rating"] == before["rating"] + 4

    def test_caching_effective_for_repeated_pages(self, fresh_rubis):
        _deployment, app, dataset = fresh_rubis
        item_id = dataset.active_item_ids[0]
        app.run_read_only(app.view_item_page, item_id)
        stats_before = app.client.stats.hits
        app.run_read_only(app.view_item_page, item_id)
        assert app.client.stats.hits > stats_before
