"""Unit tests for the accelerator configuration."""

import pytest

from repro.accel import AcceleratorConfig, BackEndConfig, FrontEndConfig


class TestFrontEndConfig:
    def test_forwarding_eliminates_stalls(self):
        assert FrontEndConfig(forwarding=True).full_node_cycles == 1
        assert FrontEndConfig(forwarding=False).full_node_cycles == 4

    def test_bypassing_shortens_pruned_nodes(self):
        no_opt = FrontEndConfig(bypassing=False, forwarding=False)
        bypass = FrontEndConfig(bypassing=True, forwarding=False)
        both = FrontEndConfig(bypassing=True, forwarding=True)
        assert no_opt.bypassed_node_cycles == no_opt.full_node_cycles
        assert bypass.bypassed_node_cycles < no_opt.bypassed_node_cycles
        assert both.bypassed_node_cycles <= bypass.bypassed_node_cycles


class TestBackEndConfig:
    def test_scheduling_validation(self):
        with pytest.raises(ValueError):
            BackEndConfig(scheduling="bogus")

    def test_cache_validation(self):
        with pytest.raises(ValueError):
            BackEndConfig(node_cache_entries=-1)

    @pytest.mark.parametrize("window", [0, -1])
    def test_issue_window_validation(self, window):
        with pytest.raises(ValueError, match="issue_window must be >= 1"):
            BackEndConfig(issue_window=window)
        assert BackEndConfig(issue_window=1).issue_window == 1


class TestAcceleratorConfig:
    def test_paper_design_point_defaults(self):
        config = AcceleratorConfig()
        assert config.n_recursion_units == 64
        assert config.n_search_units == 32
        assert config.pes_per_su == 32
        assert config.total_pes == 1024
        assert config.clock_ghz == pytest.approx(0.5)
        assert config.cycle_time_ns == pytest.approx(2.0)

    def test_buffer_sizing_matches_paper(self):
        """Sec. 6.2 sizing: 1.5 MB point/query buffers, 1.2 MB stacks,
        3 MB result buffer, 128 KB node cache, 1 KB BQB per SU."""
        config = AcceleratorConfig()
        assert config.input_point_buffer_kb == pytest.approx(1536.0)
        assert config.query_stack_buffer_kb == pytest.approx(1228.8)
        assert config.result_buffer_kb == pytest.approx(3072.0)
        assert config.node_cache_kb == pytest.approx(128.0)
        assert config.leader_buffer_entries == 16
        # ~8.7 MB of SRAM total.
        assert 8500 < config.total_sram_kb < 9500

    def test_validation(self):
        with pytest.raises(ValueError):
            AcceleratorConfig(n_recursion_units=0)
        with pytest.raises(ValueError):
            AcceleratorConfig(clock_ghz=0.0)
